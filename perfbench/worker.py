"""One benchmark workload in its own process.

Runs the workload's subcommands through the public entry point
``adkyle.cli.main``, one at a time (a closed loop with a single caller and no
extra threads), in repeated passes over the command list:

- one warm pass, untimed, whose outputs are the reference;
- timed passes until the time budget is spent (at least MIN_PASSES).

After every pass the outputs are checked and compared byte for byte with the
reference.  With ``--trace 0``, SETUP_PROBES_PER_GAP set-up probes (a fresh
interpreter importing adkyle.cli and loading the config) run after the warm
pass and after every timed pass, outside the pass timings, so the set-up
samples are spread over the whole run rather than bunched at one moment.
With ``--trace 1`` traced and untraced passes alternate, and the traced ones
also yield the per-layer metrics.  The raw results go to the
``--result`` JSON file; ``run.py`` aggregates them.

Usage (from the root of a checkout, normally through run.py):
    python3 perfbench/worker.py --workload paths --config run.cfg \
        --workdir .perfbench_work/x --seconds 30 --trace 0 --result out.json
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import check_outputs, compare_outputs  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import GRID_N, WORKLOADS, command_name  # noqa: E402

MIN_PASSES = 3         # timed passes per untraced run
MIN_TRACE_PASSES = 4   # traced and untraced alternating: three adjacent pairs
BUDGET_CAP_S = 140.0   # stop starting passes after this, whatever --seconds says
SETUP_PROBES_PER_GAP = 3
SETUP_PROBE = ("import sys; sys.path.insert(0, 'src'); import adkyle.cli; "
               "from adkyle.config import load_config; load_config(sys.argv[1])")


def _import_cli(src: Path):
    sys.path.insert(0, str(src))
    import adkyle
    import adkyle.cli

    if Path(adkyle.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: imported adkyle from {adkyle.__file__}, not from {src}")
    return adkyle.cli


def setup_seconds(config: Path, n: int) -> list[float]:
    """Wall times of n fresh interpreters importing adkyle.cli and loading the config."""
    times = []
    for _ in range(n):
        t0 = perf_counter()
        # No timeout: Popen.wait(timeout) polls in sleeps of up to 50 ms, which
        # would quantise the measurement; run.py bounds the whole worker.
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(config)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def _flag(words: tuple[str, ...], flag: str, default: int) -> int:
    return int(words[words.index(flag) + 1]) if flag in words else default


def machine_record() -> dict:
    """Facts about the machine and libraries, read only; nothing is changed."""
    import numpy
    import scipy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu_model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    quota = read("/sys/fs/cgroup/cpu.max")
    if quota is None:
        q, p = read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"), read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        quota = None if q is None else f"{q} {p}"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "cgroup_cpu_quota": quota,
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def csv_metrics(out_root: Path, cli_self_s: float) -> dict[str, float]:
    """Bytes and data rows of the CSVs one pass wrote (manifest.csv excluded)."""
    n_bytes = n_rows = 0
    for path in out_root.glob("*/*.csv"):
        if path.name != "manifest.csv":
            data = path.read_bytes()
            n_bytes += len(data)
            n_rows += data.count(b"\n") - 1
    return {
        "cli.csv_bytes": float(n_bytes),
        "cli.csv_rows": float(n_rows),
        "cli.write_mb_per_s": n_bytes / 1e6 / cli_self_s if cli_self_s > 0 else 0.0,
    }


class Runner:
    def __init__(self, cli, workload, config: Path, workdir: Path, tracer: Tracer | None):
        self.cli = cli
        self.workload = workload
        self.config = config
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.crosscheck: list[str] = []

    def run_pass(self, out_root: Path, traced: bool) -> dict:
        """Run the command list once; return wall and per-command times."""
        tracer = self.tracer if traced else None
        uninstall = None
        if tracer is not None:
            tracer.reset()
            uninstall = tracer.install()
        results = []
        try:
            t_pass = perf_counter()
            for words in self.workload.commands:
                results.append(self._run_command(words, out_root, tracer))
            wall = perf_counter() - t_pass
        finally:
            if uninstall is not None:
                uninstall()
        cmd_s = {}
        for name, words, out, rc, dt, note in results:
            cmd_s[name] = dt
            self._check(name, words, out, rc, note)
        return {"traced": traced, "wall": wall, "cmds": cmd_s}

    def _run_command(self, words, out_root: Path, tracer):
        name = command_name(words)
        out = out_root / name.replace(" ", "_")
        argv = [*words, "-c", str(self.config), "-o", str(out)]
        note = {}
        if tracer is not None:
            note = {"blocks": tracer.count("rng.shock_blocks"), "solves": len(tracer.solves)}
            t0 = tracer.enter(f"cli.{name}")
        else:
            t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main(argv)
        except Exception:  # a crash is one failed command, not the end of the run
            rc = traceback.format_exc(limit=3)
        dt = tracer.exit(f"cli.{name}", t0) if tracer is not None else perf_counter() - t0
        if tracer is not None:
            note = {"blocks": tracer.count("rng.shock_blocks") - note["blocks"],
                    "solves": tracer.solves[note["solves"]:]}
        return name, words, out, rc, dt, note

    def _check(self, name, words, out: Path, rc, note) -> None:
        self.attempted += 1
        ctx = {"grid_n": GRID_N, "paths": _flag(words, "--paths", 0)}
        errors = [f"{name}: exit status {rc!r}"] if rc != 0 else []
        errors += check_outputs(name, out, ctx)
        if out.parent.name != "ref":
            errors += compare_outputs(self.workdir / "ref" / out.name, out)
        if errors:
            self.failed += 1
            self.errors += errors
        if note:
            self._cross_check(name, out, note)

    def _cross_check(self, name, out: Path, note) -> None:
        """Tracer counts against counts the program reports itself."""
        tracer = self.tracer
        if "equilibrium.phi" not in tracer.missing:
            expected = [e for _, e in note["solves"]]
            if name == "solve" and (out / "equilibrium.csv").is_file():
                kv = dict(line.split(",", 1) for line in
                          (out / "equilibrium.csv").read_text().splitlines()[1:])
                with contextlib.suppress(KeyError, ValueError):
                    expected = [1 + int(kv["n_doublings"]) + int(kv["n_bisections"])]
            for (evals, _), exp in zip(note["solves"], expected):
                if exp is not None and evals != exp:
                    self.crosscheck.append(
                        f"{name}: traced Phi count {evals} != 1 + n_doublings + n_bisections = {exp}")
        report = out / "foc_report.csv"
        if name == "verify-foc" and "rng.shock_blocks" not in tracer.missing and report.is_file():
            # one shock stream per direction row, each ceil(n_paths / block size) blocks
            directions = len(report.read_text().splitlines()) - 1
            block = getattr(sys.modules["adkyle.orderflow"], "PATH_BLOCK_SIZE", 4096)
            per_stream = math.ceil(self.workload.n_paths / block)
            if note["blocks"] != directions * per_stream:
                self.crosscheck.append(f"verify-foc: traced shock blocks {note['blocks']} "
                                       f"!= {directions} x {per_stream}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--config", required=True, type=Path)
    ap.add_argument("--workdir", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True, type=Path)
    args = ap.parse_args(argv)

    t_start = perf_counter()
    cli = _import_cli(Path.cwd() / "src")
    tracer = Tracer() if args.trace else None
    runner = Runner(cli, WORKLOADS[args.workload], args.config, args.workdir, tracer)

    runner.run_pass(args.workdir / "ref", traced=False)
    # A CLI user runs each command in a fresh process: report that peak, not
    # one inflated by heap fragmentation over a varying number of passes.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gc.collect()
    probes = 0 if args.trace else SETUP_PROBES_PER_GAP
    setup = setup_seconds(args.config, probes)
    passes, layers, absent, rounds = [], {}, set(), []
    min_passes = MIN_TRACE_PASSES if args.trace else MIN_PASSES
    t_timed = perf_counter()
    while True:
        t_round = perf_counter()
        traced = bool(args.trace) and len(passes) % 2 == 0
        cur = args.workdir / "cur"
        p = runner.run_pass(cur, traced)
        if traced:
            values, missing = tracer.metrics()
            values.update(csv_metrics(cur, values["cli.self_s"]))
            absent |= missing
            for k, v in values.items():
                layers.setdefault(k, []).append(v)
        shutil.rmtree(cur, ignore_errors=True)
        gc.collect()  # start every pass from the same heap state, outside the timing
        setup += setup_seconds(args.config, probes)
        passes.append(p)
        now = perf_counter()
        rounds.append(now - t_round)
        estimate = statistics.median(rounds)
        if len(passes) >= min_passes and now - t_timed + estimate > args.seconds:
            break
        if now - t_start + estimate > BUDGET_CAP_S:
            break

    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "crosscheck": runner.crosscheck,
        "passes": passes,
        "setup": setup,
        "layers": layers,
        "absent": sorted(absent),
        "missing_targets": tracer.missing if tracer else [],
        "peak_rss_mb": peak_rss_mb,
        "machine": machine_record(),
    }
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
