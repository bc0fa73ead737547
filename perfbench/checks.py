"""Output checks for the benchmark's CLI runs.

Each check reads the CSVs one subcommand wrote and returns a list of failure
messages (empty when the output is correct).  The checks test properties that
hold for every seed, never frozen byte digests, so a change that alters
frozen-seed outputs on purpose still passes them.
"""

from __future__ import annotations

import csv
import filecmp
import math
from collections import defaultdict
from pathlib import Path

ALPHA_BINARY = math.sqrt(2.0)  # alpha* for I = 2

# CSV files each subcommand must write (manifest.csv carries wall time and is
# exempt from the byte-identity check).
OUTPUTS = {
    "solve": ("equilibrium.csv", "demand_surface.csv"),
    "efficiency": ("efficiency.csv",),
    "posterior probe": ("posterior_probe.csv",),
    "impact": ("impact_kernel.csv",),
    "verify-foc": ("foc_report.csv",),
    "simulate": ("paths.csv", "pathwise_prices.csv", "pathwise_posterior.csv"),
    "options": ("strip.csv", "signatures.csv"),
    "kernel dump": ("kernel.csv",),
}


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _alpha_tol(n_samples: int) -> float:
    """Allowed |alpha*(I=2) - sqrt 2|; the seed-to-seed spread is ~1e-3 at 200k, ~3e-3 at 20k."""
    return 0.01 if n_samples >= 200_000 else 0.02


def _check_alpha(alpha: float, n_samples: int, where: str) -> list[str]:
    tol = _alpha_tol(n_samples)
    if not abs(alpha - ALPHA_BINARY) <= tol:
        return [f"{where}: alpha*={alpha!r} not within {tol} of sqrt(2) at {n_samples} samples"]
    return []


def check_solve(out: Path, ctx: dict) -> list[str]:
    kv = {r["key"]: r["value"] for r in _rows(out / "equilibrium.csv")}
    return _check_alpha(float(kv["alpha_star"]), int(kv["n_samples"]), "equilibrium.csv")


def check_efficiency(out: Path, ctx: dict) -> list[str]:
    rows = sorted(_rows(out / "efficiency.csv"), key=lambda r: int(r["I"]))
    errors = []
    by_I = {int(r["I"]): r for r in rows}
    if 2 not in by_I:
        errors.append("efficiency.csv: no I = 2 row")
    else:
        r = by_I[2]
        errors += _check_alpha(float(r["alpha_star"]), int(r["n_samples"]), "efficiency.csv I=2")
    ie = [float(r["ie"]) for r in rows]
    if [int(r["I"]) for r in rows] != [2, 4, 6, 8]:
        errors.append(f"efficiency.csv: expected I = 2, 4, 6, 8, got {[r['I'] for r in rows]}")
    if not all(a > b for a, b in zip(ie, ie[1:])):
        errors.append(f"efficiency.csv: ie not strictly decreasing in I: {ie}")
    return errors


def check_impact(out: Path, ctx: dict) -> list[str]:
    bad = [r["std_err"] for r in _rows(out / "impact_kernel.csv")
           if not (math.isfinite(float(r["std_err"])) and float(r["std_err"]) >= 0.0)]
    return [f"impact_kernel.csv: {len(bad)} std_err values not finite and >= 0"] if bad else []


def check_verify_foc(out: Path, ctx: dict) -> list[str]:
    bad = [r["direction"] for r in _rows(out / "foc_report.csv") if r["status"] != "pass"]
    return [f"foc_report.csv: status not pass for {bad}"] if bad else []


def check_simulate(out: Path, ctx: dict) -> list[str]:
    errors = []
    pi_sum = defaultdict(float)
    for r in _rows(out / "pathwise_posterior.csv"):
        pi_sum[r["path_id"]] += float(r["pi"])
    bad = [pid for pid, s in pi_sum.items() if not abs(s - 1.0) <= 1e-12]
    if bad:
        errors.append(f"pathwise_posterior.csv: pi does not sum to 1 on {len(bad)} paths")
    if len(pi_sum) != ctx["paths"]:
        errors.append(f"pathwise_posterior.csv: {len(pi_sum)} paths, expected {ctx['paths']}")
    with open(out / "paths.csv", "rb") as fh:
        n_rows = sum(1 for _ in fh) - 1
    if n_rows != ctx["paths"] * ctx["grid_n"]:
        errors.append(f"paths.csv: {n_rows} rows, expected {ctx['paths']} x {ctx['grid_n']}")
    return errors


def check_kernel_dump(out: Path, ctx: dict) -> list[str]:
    flag = [r["value"] for r in _rows(out / "kernel.csv") if r["matrix"] == "exchangeable"]
    return [] if flag == ["1"] else [f"kernel.csv: exchangeable = {flag}, expected 1"]


CHECKS = {
    "solve": check_solve,
    "efficiency": check_efficiency,
    "impact": check_impact,
    "verify-foc": check_verify_foc,
    "simulate": check_simulate,
    "kernel dump": check_kernel_dump,
}


def check_outputs(command: str, out: Path, ctx: dict) -> list[str]:
    """Expected files present, then the command's content check."""
    missing = [f for f in OUTPUTS[command] if not (out / f).is_file()]
    if missing:
        return [f"{command}: missing {missing}"]
    check = CHECKS.get(command)
    try:
        return check(out, ctx) if check else []
    except (KeyError, ValueError) as exc:
        return [f"{command}: unreadable output ({exc!r})"]


def compare_outputs(ref: Path, cur: Path) -> list[str]:
    """Every CSV except manifest.csv is byte-identical between two passes."""
    names = {p.name for p in ref.glob("*.csv")} | {p.name for p in cur.glob("*.csv")}
    names.discard("manifest.csv")
    return [f"{cur.name}/{n}: differs from the first pass" for n in sorted(names)
            if not ((ref / n).is_file() and (cur / n).is_file()
                    and filecmp.cmp(ref / n, cur / n, shallow=False))]
