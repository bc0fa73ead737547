"""adkyle benchmark: one workload, one run, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload equilibrium --seed 7 --seconds 40 --trace 0

The run generates the workload's config from --seed, then runs the workload
in its own fresh process (worker.py) for --seconds, checking every output;
between passes the worker also times the set-up a user pays on every CLI
invocation (a fresh interpreter importing adkyle.cli and loading the config).
With --trace 0 it reports the end-to-end metrics; with --trace 1 the
per-layer metrics from the outside-in tracer.  The last line of stdout is the
JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Pass timings are the fastest of the run's passes (other tenants of a shared
host only ever add time); set-up is the median of its probes.  A per-layer
metric that cannot be measured (its traced function is gone, or its
denominator is 0 on the workload) is reported as 0, counted in
trace.absent_metrics and named on the "absent:" line above the result.  The
run exits with status 2, printing no result, when the checkout holds no
adkyle sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import METRIC_UNITS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

RUN_TIMEOUT_S = 170.0
WORK_ROOT = ".perfbench_work"


def _summary(name: str, values: list[float]) -> str:
    return (f"  {name:<16} median={statistics.median(values):.4f} "
            f"min={min(values):.4f} max={max(values):.4f} n={len(values)}")


def _end_to_end(res: dict, main_cmd: str) -> dict:
    passes = [p for p in res["passes"] if not p["traced"]]
    return {
        "wall_s": (min(p["wall"] for p in passes), "s"),
        "main_cmd_s": (min(p["cmds"][main_cmd] for p in passes), "s"),
        "setup_s": (statistics.median(res["setup"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def trace_overhead(passes: list[dict]) -> tuple[float, float]:
    """Tracer overhead in %, and the untraced passes' own spread in %.

    Traced and untraced passes alternate, so every two neighbouring passes
    form a pair; the overhead is the median over these pairs of traced wall
    over untraced wall, minus 1.  Both orders occur equally often, so a drift
    over the run cancels out.
    """
    ratios = [(a["wall"] / b["wall"] if a["traced"] else b["wall"] / a["wall"])
              for a, b in zip(passes, passes[1:])]
    untraced = [p["wall"] for p in passes if not p["traced"]]
    return (100.0 * (statistics.median(ratios) - 1.0),
            100.0 * (max(untraced) / min(untraced) - 1.0))


def _per_layer(res: dict) -> dict:
    out = {k: (statistics.median(v), METRIC_UNITS[k]) for k, v in res["layers"].items()}
    out["trace.overhead_pct"] = (trace_overhead(res["passes"])[0], "%")
    out["trace.absent_metrics"] = (float(len(res["absent"])), "count")
    out["trace.crosscheck_failures"] = (float(len(res["crosscheck"])), "count")
    return {k: out[k] for k in METRIC_UNITS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one adkyle benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not Path("src/adkyle/cli.py").is_file():
        print("error: run from the root of an adkyle checkout (src/adkyle/cli.py not found)",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    Path(WORK_ROOT).mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        config = workdir / "run.cfg"
        config.write_text(workload.config_text(args.seed))
        result_file = workdir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--config", str(config), "--workdir", str(workdir), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--result", str(result_file)]
        # The worker and the set-up probes it starts form their own process
        # group, so a timeout or an interrupt stops all of them.
        proc = subprocess.Popen(cmd, start_new_session=True)
        try:
            status = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: workload {args.workload} did not finish in time", file=sys.stderr)
            return 1
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if status != 0 or not result_file.is_file():
            print(f"error: worker exited with status {status}", file=sys.stderr)
            return 1
        res = json.loads(result_file.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)

    metrics = _per_layer(res) if args.trace else _end_to_end(res, workload.main)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(res['passes'])} (+1 warm) attempted={res['attempted']} "
          f"failed={res['failed']} error_rate={res['failed'] / res['attempted']:.4f}")
    print("machine: " + json.dumps(res["machine"], sort_keys=True))
    untraced = [p for p in res["passes"] if not p["traced"]]
    print("per-pass times (untraced passes):")
    print(_summary("wall", [p["wall"] for p in untraced]))
    for name in untraced[0]["cmds"]:
        print(_summary(name, [p["cmds"][name] for p in untraced]))
    if res["setup"]:
        print(_summary("setup", res["setup"]))
    if args.trace:
        overhead, noise = trace_overhead(res["passes"])
        verdict = "unresolved" if overhead <= noise else "resolved"
        print(f"trace overhead {overhead:.2f}% over {len(res['passes']) - 1} pass pairs: "
              f"{verdict} against the untraced passes' own spread of {noise:.2f}%")
    for msg in res["errors"]:
        print(f"check failed: {msg}")
    for msg in res["crosscheck"]:
        print(f"cross-check failed: {msg}")
    for name in res["missing_targets"]:
        print(f"trace target missing: {name}")
    print("absent: " + json.dumps(res["absent"]))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
