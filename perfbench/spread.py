"""Run the benchmark over several seeds and report each metric's median and spread.

From the root of a checkout:

    python3 perfbench/spread.py --workloads equilibrium paths --seeds 0-9 --out runs.json

Each (workload, seed) is one `run.py` invocation with BENCHMARK.json's
run_seconds, made one after another.  The spread of a metric is
(Q3 - Q1) / median over the seeds, with the quartiles of
`statistics.quantiles(values, n=4)`; it is printed next to the metric's bound
from BENCHMARK.json.  A per-layer metric that any run reports as absent is
marked so.  A run that fails or reports correct = false is listed and kept
out of the statistics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", type=_seeds, default=_seeds("0-9"), help="e.g. 0-9")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None, help="write every run's result here")
    args = ap.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs, ok = [], True
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            tagged = {tag: json.loads(line[len(tag) + 2:]) for line in lines
                      for tag in ("machine", "absent") if line.startswith(tag + ": ")}
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            runs.append({"workload": workload, "seed": seed, "result": result,
                         "machine": tagged.get("machine"), "absent": tagged.get("absent", [])})
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed={seed}: FAILED (status {proc.returncode})\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                continue
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                              if k in bounds or args.trace)
            print(f"{workload} seed={seed}: {values}", flush=True)

    print("\nworkload     metric                 median      spread  bound  n")
    for workload in args.workloads:
        good = [r for r in runs
                if r["workload"] == workload and r["result"] and r["result"]["correct"]]
        if len(good) < 2:
            continue
        absent = {name for r in good for name in r["absent"]}
        for name in good[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in good]
            med = statistics.median(values)
            s = spread(values) if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or s < bound / 3 else "  <-- above bound/3"
            flag += "  (absent)" if name in absent else ""
            print(f"{workload:<12} {name:<22} {med:<11.5g} {s:<7.4f} {bound!s:<6} "
                  f"{len(values)}{flag}")
    if args.out:
        args.out.write_text(json.dumps({"seconds": seconds, "trace": args.trace,
                                        "runs": runs}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
