"""Command-line front end: solve, simulate, analyze, and dump CSV artifacts.

Every subcommand reads a flat key=value config, runs one stage of the
pipeline, and writes plain CSV files into the output directory (never plots,
never binary blobs).  A manifest.csv records tool version, config hash, seed,
and wall time for provenance; all other files are bitwise reproducible from
(config, seed).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import efficiency_sweep, impact_surface, information_efficiency
from .config import (
    RunConfig,
    config_family,
    config_grid,
    config_hash,
    config_noise,
    load_config,
    with_seed,
)
from .equilibrium import equilibrium_demand, solve_alpha_star
from .kernel import build_canonical_kernel
from .model import prior_moments
from .objective import foc_terms, zero_impact_basis
from .options import bl_decompose, bl_reconstruct, demand_signature
from .orderflow import pathwise_posterior, price_schedule, simulate_order_flow
from .posterior import binary_moments_quadrature, posterior_moments

OUTPUT_DIR_ENV = "ADKYLE_OUTPUT_DIR"


def _cells(column) -> list[str]:
    """Text of one column: repr for floats (round-trips exactly), str otherwise."""
    if isinstance(column, np.ndarray):
        return list(map(repr if column.dtype.kind == "f" else str, column.tolist()))
    return [repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in column]


def write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length columns (arrays or sequences) under a header row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*map(_cells, columns), strict=True))


def _manifest(outdir: Path, cfg: RunConfig, command: str, t0: float) -> None:
    rows = [
        ("tool_version", __version__),
        ("command", command),
        ("config_hash", config_hash(cfg)),
        ("seed", cfg.seed),
        ("n_samples", cfg.n_samples),
        ("n_paths", cfg.n_paths),
        ("wall_time_s", f"{time.perf_counter() - t0:.3f}"),
        ("created_utc", datetime.now(timezone.utc).isoformat()),
    ]
    write_csv(outdir / "manifest.csv", ["key", "value"], zip(*rows))


def _pipeline(cfg: RunConfig):
    grid = config_grid(cfg)
    noise = config_noise(cfg, grid)
    family = config_family(cfg, grid)
    kern = build_canonical_kernel(family, noise, grid)
    return grid, noise, family, kern


def _solved(cfg: RunConfig):
    grid, noise, family, kern = _pipeline(cfg)
    eq = solve_alpha_star(
        kern, n_samples=cfg.n_samples, seed=cfg.seed,
        phi_tol=cfg.phi_tol, width_tol=cfg.width_tol,
    )
    _, w_star = equilibrium_demand(eq, kern, family)
    return grid, noise, family, eq, w_star


def _signal(args, family) -> int:
    if not 0 <= args.signal < family.I:
        raise ValueError(f"adkyle.cli: --signal {args.signal} out of range for I={family.I}")
    return args.signal


def cmd_solve(args, cfg: RunConfig, outdir: Path) -> int:
    grid, noise, family, eq, w_star = _solved(cfg)
    rows = [
        ("alpha_star", eq.alpha_star),
        ("alpha_raw", eq.alpha_raw),
        ("c", eq.c),
        ("I", eq.I),
        ("phi_residual", eq.phi_residual),
        ("bracket_hi", eq.mc_meta["bracket_hi"]),
        ("n_doublings", eq.mc_meta["n_doublings"]),
        ("n_bisections", eq.mc_meta["n_bisections"]),
        ("n_samples", cfg.n_samples),
        ("seed", cfg.seed),
    ]
    write_csv(outdir / "equilibrium.csv", ["key", "value"], zip(*rows))
    write_csv(
        outdir / "demand_surface.csv",
        ["x"] + [f"w_{lab}" for lab in family.labels],
        [grid.nodes, *w_star],
    )
    print(f"solve: alpha_star={eq.alpha_star:.6f} alpha_raw={eq.alpha_raw:.6f} "
          f"c={eq.c:.6f} I={eq.I} -> {outdir}")
    return 0


def cmd_simulate(args, cfg: RunConfig, outdir: Path) -> int:
    if args.paths < 1:
        raise ValueError(f"adkyle.cli: --paths must be >= 1, got {args.paths}")
    grid, noise, family, eq, w_star = _solved(cfg)
    s = _signal(args, family)

    n_paths, n, I = args.paths, grid.n, family.I
    y, price = np.empty((n_paths, n)), np.empty((n_paths, n))
    log_lik, pi = np.empty((n_paths, I)), np.empty((n_paths, I))
    for pid in range(n_paths):
        path = simulate_order_flow(w_star[s], s, noise, grid, seed=cfg.seed + pid)
        post = pathwise_posterior(path, w_star, noise, grid)
        y[pid], log_lik[pid], pi[pid] = path.y, post.log_lik, post.pi
        price[pid] = price_schedule(post.pi, family)
    path_id, x = np.repeat(np.arange(n_paths), n), np.tile(grid.nodes, n_paths)
    write_csv(outdir / "paths.csv", ["path_id", "x", "y"], [path_id, x, y.ravel()])
    write_csv(outdir / "pathwise_prices.csv", ["path_id", "x", "price"],
              [path_id, x, price.ravel()])
    write_csv(outdir / "pathwise_posterior.csv", ["path_id", "signal", "log_lik", "pi"],
              [np.repeat(np.arange(n_paths), I), family.labels * n_paths,
               log_lik.ravel(), pi.ravel()])
    print(f"simulate: {n_paths} path(s) under signal {family.labels[s]} -> {outdir}")
    return 0


def cmd_impact(args, cfg: RunConfig, outdir: Path) -> int:
    grid, noise, family, eq, w_star = _solved(cfg)
    mu, sbar = prior_moments(family, grid)
    lo = max(mu - 3.0 * sbar, grid.nodes[1])
    hi = min(mu + 3.0 * sbar, grid.nodes[-2])
    i_lo, i_hi = grid.nearest(lo, margin=1), grid.nearest(hi, margin=1)
    idx = np.unique(np.round(np.linspace(i_lo, i_hi, cfg.n_sub)).astype(int))
    points = grid.nodes[idx]
    values, errs = impact_surface(
        points, points, w_star, family, noise, grid,
        n_paths=cfg.n_paths, seed=cfg.seed, conditioned_on=cfg.conditioned_on,
    )
    write_csv(
        outdir / "impact_kernel.csv",
        ["x", "y", "lambda", "std_err"],
        [np.repeat(points, len(points)), np.tile(points, len(points)),
         values.ravel(), errs.ravel()],
    )
    print(f"impact: {len(points)}x{len(points)} kernel estimates -> {outdir}")
    return 0


def cmd_efficiency(args, cfg: RunConfig, outdir: Path) -> int:
    rows = efficiency_sweep(n_samples=cfg.n_samples, master_seed=cfg.seed)
    write_csv(
        outdir / "efficiency.csv",
        ["I", "alpha_star", "ie", "std_err", "n_samples", "seed"],
        zip(*((r.I, r.alpha_star, r.ie, r.std_err, r.n_samples, r.seed) for r in rows)),
    )
    summary = " ".join(f"I={r.I}:{r.ie:.4f}" for r in rows)
    print(f"efficiency: {summary} -> {outdir}")
    return 0


def cmd_options(args, cfg: RunConfig, outdir: Path) -> int:
    grid, noise, family, eq, w_star = _solved(cfg)
    s = _signal(args, family)
    mu, _ = prior_moments(family, grid)
    strip = bl_decompose(w_star[s], grid, float(grid.nodes[grid.nearest(mu, margin=1)]))
    recon = bl_reconstruct(strip, grid)
    max_err = float(np.max(np.abs(recon - w_star[s])))

    n_put, n_call = len(strip.put_strikes), len(strip.call_strikes)
    write_csv(
        outdir / "strip.csv",
        ["component", "strike", "value"],
        [["bond", "underlying", "k0", "max_recon_err"] + ["put"] * n_put + ["call"] * n_call,
         [""] * 4 + strip.put_strikes.tolist() + strip.call_strikes.tolist(),
         np.concatenate([[strip.bond, strip.underlying, strip.k0, max_err],
                         strip.put_density, strip.call_density])],
    )
    write_csv(
        outdir / "signatures.csv",
        ["signal", "signature"],
        [family.labels, [demand_signature(row, family, grid) for row in w_star]],
    )
    print(f"options: signal {family.labels[s]} k0={strip.k0:.4f} "
          f"max_recon_err={max_err:.2e} -> {outdir}")
    return 0


def cmd_verify_foc(args, cfg: RunConfig, outdir: Path) -> int:
    grid, noise, family, eq, w_star = _solved(cfg)
    basis = zero_impact_basis(w_star, noise, grid)
    directions = [
        ("own_demand", w_star[0]),
        ("payoff_row", family.eta[0]),
        ("zero_impact", basis[0]),
    ]
    rows, ok = [], True
    for name, v in directions:
        rep = foc_terms(
            w_star[0], v, w_star, family, 0, noise, grid,
            n_paths=cfg.n_paths, seed=cfg.seed,
        )
        tol = 4.0 * rep.std_err_fd + 1e-6
        passed = abs(rep.diff) <= tol
        ok &= passed
        rows.append((name, rep.payoff_term, rep.adverse_selection_term, rep.impact_term,
                     rep.analytic_total, rep.fd_total, rep.fd_epsilon, rep.diff,
                     rep.std_err_diff, rep.std_err_fd, rep.n_paths,
                     "pass" if passed else "fail"))
        print(f"verify-foc[{name}]: analytic={rep.analytic_total:+.6e} "
              f"fd={rep.fd_total:+.6e} diff={rep.diff:+.2e} "
              f"({'pass' if passed else 'FAIL'})")
    write_csv(
        outdir / "foc_report.csv",
        ["direction", "payoff_term", "adverse_selection_term", "impact_term",
         "analytic_total", "fd_total", "fd_epsilon", "diff", "std_err_diff",
         "std_err_fd", "n_paths", "status"],
        zip(*rows),
    )
    return 0 if ok else 1


def cmd_kernel_dump(args, cfg: RunConfig, outdir: Path) -> int:
    grid, noise, family, kern = _pipeline(cfg)
    names, I = ("K", "Q", "L", "L_pinv"), kern.I
    row_idx = np.tile(np.repeat(np.arange(I), I), len(names)).tolist()
    col_idx = np.tile(np.arange(I), I * len(names)).tolist()
    values = np.concatenate([getattr(kern, name).ravel() for name in names]).tolist()
    write_csv(
        outdir / "kernel.csv",
        ["matrix", "row", "col", "value"],
        [[name for name in names for _ in range(I * I)] + ["c", "exchangeable", "rank_tol"],
         row_idx + [0, 0, 0],
         col_idx + [0, 0, 0],
         values + [kern.c, int(kern.exchangeable), kern.rank_tol]],
    )
    print(f"kernel dump: I={kern.I} c={kern.c:.6f} "
          f"exchangeable={kern.exchangeable} -> {outdir}")
    return 0


def cmd_posterior_probe(args, cfg: RunConfig, outdir: Path) -> int:
    grid, noise, family, kern = _pipeline(cfg)
    I = family.I
    alpha_bar = args.alpha_bar
    mom = posterior_moments(alpha_bar, I, 0, n_samples=cfg.n_samples, seed=cfg.seed)
    rows = [("m1", i, mom.m1[i]) for i in range(I)]
    rows += [("std_err_m1", i, mom.std_err_m1[i]) for i in range(I)]
    rows.append(("qcq_diag", 0, mom.qcq_diag))
    rows.append(("n_samples", 0, mom.n_samples))
    if I == 2:
        phi1, phi2 = binary_moments_quadrature(alpha_bar)
        rows.append(("phi1_quadrature", 0, phi1))
        rows.append(("phi2_quadrature", 0, phi2))
    ie, se = information_efficiency(alpha_bar, I, n_samples=cfg.n_samples, seed=cfg.seed)
    rows.append(("information_efficiency", 0, ie))
    rows.append(("ie_std_err", 0, se))
    write_csv(outdir / "posterior_probe.csv", ["quantity", "index", "value"], zip(*rows))
    print(f"posterior probe: alpha_bar={alpha_bar} I={I} "
          f"m1_true={mom.m1[0]:.6f} -> {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adkyle",
        description="Equilibrium engine and simulator for insider trading "
                    "across a continuum of state-contingent claims.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name: str, summary: str, func, label: str = ""):
        p = subparsers.add_parser(name, help=summary)
        p.add_argument("-c", "--config", required=True, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override mc.seed")
        p.add_argument("-o", "--output-dir", default=None,
                       help=f"override output dir (also {OUTPUT_DIR_ENV})")
        p.set_defaults(func=func, label=label or name)
        return p

    command(sub, "solve", "solve the equilibrium and dump the demand surface", cmd_solve)
    p = command(sub, "simulate", "simulate order-flow paths and pathwise prices", cmd_simulate)
    p.add_argument("--signal", type=int, default=0, help="realized signal index")
    p.add_argument("--paths", type=int, default=3, help="number of paths to write")
    command(sub, "impact", "estimate the cross-asset price-impact kernel", cmd_impact)
    command(sub, "efficiency", "information-efficiency sweep over signal counts", cmd_efficiency)
    p = command(sub, "options", "option-strip decomposition and demand signatures", cmd_options)
    p.add_argument("--signal", type=int, default=0, help="signal row to decompose")
    command(sub, "verify-foc", "check first-order conditions against finite differences",
            cmd_verify_foc)

    ksub = sub.add_parser("kernel", help="kernel inspection").add_subparsers(
        dest="kernel_command", required=True)
    command(ksub, "dump", "dump K, Q, L, L_pinv and scalars to CSV", cmd_kernel_dump,
            "kernel dump")
    psub = sub.add_parser("posterior", help="posterior inspection").add_subparsers(
        dest="posterior_command", required=True)
    p = command(psub, "probe", "moments of the canonical posterior at alpha_bar",
                cmd_posterior_probe, "posterior probe")
    p.add_argument("--alpha-bar", type=float, required=True)
    return parser


def main(argv=None) -> int:
    """Parse, load the config, run one subcommand into its output dir, write the manifest."""
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = with_seed(load_config(args.config), args.seed)
        outdir = Path(args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or cfg.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        status = args.func(args, cfg, outdir)
        _manifest(outdir, cfg, args.label, t0)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
