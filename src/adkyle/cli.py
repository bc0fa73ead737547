"""Command-line front end: solve, simulate, analyze, and dump CSV artifacts.

Every subcommand reads a flat key=value config and runs one stage of the
pipeline.  Its handler, cmd_*(args, cfg), returns (tables, summary, status):
the CSV tables by file name in write order, each as (header, columns); the
stdout line without its " -> outdir" (None if the handler prints its own);
and the exit status.  main alone touches the output directory: it writes the
tables as plain CSV (never plots, never binary blobs), prints the summary,
and writes a manifest.csv of tool, Python, numpy and BLAS versions, config
hash, seed, and wall, compute and write times for provenance; all other
files are bitwise reproducible from (config, seed).
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
import threading
import time
from dataclasses import astuple, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import efficiency_sweep, impact_surface
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
from .kernel import RANK_TOL, build_canonical_kernel
from .model import prior_moments
from .objective import FocReport, foc_terms, zero_impact_basis
from .options import bl_decompose, bl_reconstruct, demand_signature
from .orderflow import log_likelihoods, posterior_weights, price_schedule, simulate_increments
from .posterior import QUAD_TOL, true_belief_moments

OUTPUT_DIR_ENV = "ADKYLE_OUTPUT_DIR"
CSV_BLOCK_ROWS = 1 << 14  # rows formatted per write and per worker task: bounds the text in memory
PARALLEL_MIN_ROWS = 5 * CSV_BLOCK_ROWS  # rows from which forked workers pay off (README)


def _numeric(column) -> bool:
    """A bool, integer or float array whose items view as an unsigned integer (no longdouble)."""
    return isinstance(column, np.ndarray) and column.dtype.kind in "biuf" and column.itemsize <= 8


def _cells(column) -> list[str]:
    """Text of one column: repr for floats (round-trips exactly), str otherwise.

    A numeric array is formatted once per distinct bit pattern, not per cell
    (on bits, not values: 0.0 and -0.0 print differently).
    """
    if isinstance(column, np.ndarray):
        text = repr if column.dtype.kind == "f" else str
        if not _numeric(column):
            return list(map(text, column.tolist()))
        bits, inverse = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
        distinct = bits.view(column.dtype).tolist()
        return np.array(list(map(text, distinct)), dtype=object)[inverse].tolist()
    return [repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in column]


def _blocks(columns: list):
    return ([column[start:start + CSV_BLOCK_ROWS] for column in columns]
            for start in range(0, max(map(len, columns), default=0), CSV_BLOCK_ROWS))


def _block_text(block) -> str:
    """CSV text of one block of equal-length columns; rows of numeric arrays need no quoting."""
    cells = [_cells(column) for column in block]
    if all(map(_numeric, block)):
        n, k = len(cells[0]), len(cells)
        text = [","] * (2 * k * n)
        for j, column in enumerate(cells):
            text[2 * j::2 * k] = column  # raises ValueError on a column of another length
        text[2 * k - 1::2 * k] = ["\r\n"] * n
        return "".join(text)
    csv.writer(buf := io.StringIO()).writerows(zip(*cells, strict=True))
    return buf.getvalue()


def _write_csvs(tables: dict, map_blocks=map) -> None:
    """Write {path: (header, columns)} tables, block texts from map_blocks(_block_text, blocks) in
    order; all tables are queued before the first write, so pool workers never wait between them."""
    queued = [map_blocks(_block_text, _blocks(columns)) for _, columns in tables.values()]
    for (path, (header, _)), texts in zip(tables.items(), queued):
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(header)
            fh.writelines(texts)


def write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length columns (arrays or sequences) under a header row."""
    _write_csvs({path: (header, list(columns))})


def _write_tables(outdir: Path, tables: dict) -> int:
    """Write each table to outdir/name; return the number of forked workers (0: serial, README)."""
    tables = {outdir / name: (header, list(columns)) for name, (header, columns) in tables.items()}
    rows = [max(map(len, columns), default=0) for _, columns in tables.values()]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, sum(-(-n // CSV_BLOCK_ROWS) for n in rows))
    # fork, as spawned workers would import numpy again; it is safe with no other Python thread
    if sum(rows) < PARALLEL_MIN_ROWS or workers < 2 or threading.active_count() > 1:
        _write_csvs(tables)
        return 0
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            _write_csvs(tables, pool.map)
    except BrokenProcessPool as exc:
        raise ChildProcessError(f"adkyle.cli: a CSV worker process died: {exc}") from None
    return workers


def _manifest(cfg: RunConfig, command: str, t0: float, times: list[tuple]) -> list[tuple]:
    # read off modules already loaded: importlib.metadata would cost milliseconds per run
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return [
        ("tool_version", __version__),
        ("python_version", ".".join(map(str, sys.version_info[:3]))),
        ("numpy_version", np.__version__),
        ("blas", f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"),
        ("command", command),
        ("config_hash", config_hash(cfg)),
        ("seed", cfg.seed),
        ("n_samples", cfg.n_samples),
        ("n_paths", cfg.n_paths),
        ("wall_time_s", f"{time.perf_counter() - t0:.3f}"),
        *times,
        ("created_utc", datetime.now(timezone.utc).isoformat()),
    ]


def _model(cfg: RunConfig):
    grid = config_grid(cfg)
    return grid, config_noise(cfg, grid), config_family(cfg, grid)


def _pipeline(cfg: RunConfig):
    grid, noise, family = _model(cfg)
    return grid, noise, family, build_canonical_kernel(family, noise, grid)


def _solved(cfg: RunConfig):
    grid, noise, family, kern = _pipeline(cfg)
    eq = solve_alpha_star(kern.I, phi_tol=cfg.phi_tol, width_tol=cfg.width_tol)
    w_star = equilibrium_demand(eq, kern, family, noise)
    return grid, noise, family, kern, eq, w_star


def _signal(args, family) -> int:
    if not 0 <= args.signal < family.I:
        raise ValueError(f"adkyle.cli: --signal {args.signal} out of range for I={family.I}")
    return args.signal


def cmd_solve(args, cfg: RunConfig):
    grid, noise, family, kern, eq, w_star = _solved(cfg)
    alpha_raw = eq.alpha_star / math.sqrt(kern.c)
    rows = [
        ("alpha_star", eq.alpha_star),
        ("alpha_raw", alpha_raw),
        ("c", kern.c),
        ("I", eq.I),
        ("phi_residual", eq.phi_residual),
        ("alpha_std_err", eq.alpha_std_err),
        ("bracket_hi", eq.mc_meta["bracket_hi"]),
        ("n_doublings", eq.mc_meta["n_doublings"]),
        ("n_bisections", eq.mc_meta["n_bisections"]),
        ("n_samples", cfg.n_samples),
        ("seed", cfg.seed),
    ]
    trace = eq.mc_meta["trace"]
    tables = {
        "equilibrium.csv": (["key", "value"], zip(*rows)),
        "solver_trace.csv": (["eval", "alpha_bar", "phi", "stage"],
                             [range(1, len(trace) + 1), *zip(*trace)]),
        "demand_surface.csv": (["x"] + [f"w_{lab}" for lab in family.labels],
                               [grid.nodes, *w_star]),
    }
    return tables, (f"solve: alpha_star={eq.alpha_star:.6f} (se {eq.alpha_std_err:.1e}, "
                    f"{len(trace)} Phi evaluations) alpha_raw={alpha_raw:.6f} "
                    f"c={kern.c:.6f} I={eq.I}"), 0


def cmd_simulate(args, cfg: RunConfig):
    if args.paths < 1:
        raise ValueError(f"adkyle.cli: --paths must be >= 1, got {args.paths}")
    grid, noise, family, _, _, w_star = _solved(cfg)
    s = _signal(args, family)

    # path p is row p of the seed's path-shock stream, so a path's rows do not depend on --paths
    n_paths, n, I = args.paths, grid.n, family.I
    increments, _ = simulate_increments(w_star[s], noise, grid, cfg.seed, n_paths)
    y = np.zeros((n_paths, n))
    np.cumsum(increments, axis=1, out=y[:, 1:])
    log_lik = log_likelihoods(w_star, increments, noise, grid)
    pi = posterior_weights(log_lik)
    price = price_schedule(pi, family)
    path_id, x = np.repeat(np.arange(n_paths), n), np.tile(grid.nodes, n_paths)
    tables = {
        "paths.csv": (["path_id", "x", "y"], [path_id, x, y.ravel()]),
        "pathwise_prices.csv": (["path_id", "x", "price"], [path_id, x, price.ravel()]),
        "pathwise_posterior.csv": (["path_id", "signal", "log_lik", "pi"],
                                   [np.repeat(np.arange(n_paths), I), family.labels * n_paths,
                                    log_lik.ravel(), pi.ravel()]),
    }
    return tables, f"simulate: {n_paths} path(s) under signal {family.labels[s]}", 0


def cmd_impact(args, cfg: RunConfig):
    grid, noise, family, _, _, w_star = _solved(cfg)
    mu, sbar = prior_moments(family, grid)
    lo = max(mu - 3.0 * sbar, grid.nodes[1])
    hi = min(mu + 3.0 * sbar, grid.nodes[-2])
    i_lo, i_hi = grid.nearest(lo, margin=1), grid.nearest(hi, margin=1)
    idx = np.unique(np.round(np.linspace(i_lo, i_hi, cfg.n_sub)).astype(int))
    points = grid.nodes[idx]
    values, errs = impact_surface(points, points, w_star, family, noise, grid,
                                  conditioned_on=cfg.conditioned_on)
    n = len(points)
    tables = {"impact_kernel.csv": (["x", "y", "lambda", "std_err"],
                                    [np.repeat(points, n), np.tile(points, n),
                                     values.ravel(), errs.ravel()])}
    return tables, f"impact: {n}x{n} kernel estimates", 0


def cmd_efficiency(args, cfg: RunConfig):
    sweep = efficiency_sweep()
    rows = [(eq.I, eq.alpha_star, eq.ie, eq.ie_std_err, cfg.n_samples, cfg.seed) for eq in sweep]
    tables = {"efficiency.csv": (["I", "alpha_star", "ie", "std_err", "n_samples", "seed"],
                                 zip(*rows))}
    return tables, "efficiency: " + " ".join(f"I={eq.I}:{eq.ie:.4f}" for eq in sweep), 0


def cmd_options(args, cfg: RunConfig):
    grid, noise, family, _, _, w_star = _solved(cfg)
    s = _signal(args, family)
    mu, _ = prior_moments(family, grid)
    strip = bl_decompose(w_star[s], grid, float(grid.nodes[grid.nearest(mu, margin=1)]))
    max_err = float(np.max(np.abs(bl_reconstruct(strip, grid) - w_star[s])))

    n_put, n_call = len(strip.put_strikes), len(strip.call_strikes)
    tables = {
        "strip.csv": (
            ["component", "strike", "value"],
            [["bond", "underlying", "k0", "max_recon_err"] + ["put"] * n_put + ["call"] * n_call,
             [""] * 4 + strip.put_strikes.tolist() + strip.call_strikes.tolist(),
             np.concatenate([[strip.bond, strip.underlying, strip.k0, max_err],
                             strip.put_density, strip.call_density])]),
        "signatures.csv": (["signal", "signature"],
                           [family.labels,
                            [demand_signature(row, family, grid) for row in w_star]]),
    }
    return tables, (f"options: signal {family.labels[s]} k0={strip.k0:.4f} "
                    f"max_recon_err={max_err:.2e}"), 0


def cmd_verify_foc(args, cfg: RunConfig):
    grid, noise, family, _, eq, w_star = _solved(cfg)
    basis = zero_impact_basis(w_star, noise, grid)
    names = ("own_demand", "payoff_row", "zero_impact")
    reports = foc_terms(np.stack([w_star[0], family.eta[0], basis[0]]), w_star, family, 0,
                        noise, grid, phi_residual=eq.phi_residual)
    rows, ok = [], True
    for name, rep in zip(names, reports):
        passed = abs(rep.analytic_total) <= rep.residual_bound and abs(rep.diff) <= rep.fd_bound
        ok &= passed
        rows.append((name, *astuple(rep), "pass" if passed else "fail"))
        print(f"verify-foc[{name}]: analytic={rep.analytic_total:+.2e} "
              f"(bound {rep.residual_bound:.1e}) fd={rep.fd_total:+.2e} "
              f"diff={rep.diff:+.2e} (bound {rep.fd_bound:.1e}) ({'pass' if passed else 'FAIL'})")
    header = ["direction", *(f.name for f in fields(FocReport)), "status"]
    return {"foc_report.csv": (header, zip(*rows))}, None, 0 if ok else 1


def cmd_kernel_dump(args, cfg: RunConfig):
    grid, noise, family, kern = _pipeline(cfg)
    names, I = ("K", "Q"), kern.I
    row_idx = np.tile(np.repeat(np.arange(I), I), len(names)).tolist()
    col_idx = np.tile(np.arange(I), I * len(names)).tolist()
    values = np.concatenate([getattr(kern, name).ravel() for name in names]).tolist()
    tables = {"kernel.csv": (
        ["matrix", "row", "col", "value"],
        [[name for name in names for _ in range(I * I)] + ["c", "exchangeable", "rank_tol"],
         row_idx + [0, 0, 0],
         col_idx + [0, 0, 0],
         values + [kern.c, int(kern.exchangeable), RANK_TOL]])}
    return tables, f"kernel dump: I={kern.I} c={kern.c:.6f} exchangeable={kern.exchangeable}", 0


def cmd_posterior_probe(args, cfg: RunConfig):
    # only I is read; grid and noise are built so that a bad config fails as elsewhere
    I = _model(cfg)[2].I
    # the truth (index 0) holds 1 - E[1 - q_t] and the I - 1 exchangeable rivals
    # share the rest; C 1 = 0 makes (Q C Q)_tt = q_t (1 - q_t)
    not_true, spread = true_belief_moments(args.alpha_bar, I)
    m1 = [1.0 - not_true] + [not_true / (I - 1)] * (I - 1)
    rows = [("m1", i, v) for i, v in enumerate(m1)]
    rows += [("qcq_diag", 0, spread), ("quad_tol", 0, QUAD_TOL)]
    tables = {"posterior_probe.csv": (["quantity", "index", "value"], zip(*rows))}
    return tables, f"posterior probe: alpha_bar={args.alpha_bar} I={I} m1_true={m1[0]:.6f}", 0


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
    command(sub, "impact", "cross-asset price-impact kernel in closed form", cmd_impact)
    command(sub, "efficiency", "information-efficiency sweep over signal counts", cmd_efficiency)
    p = command(sub, "options", "option-strip decomposition and demand signatures", cmd_options)
    p.add_argument("--signal", type=int, default=0, help="signal row to decompose")
    command(sub, "verify-foc", "check the first-order conditions in closed form and by "
            "finite differences", cmd_verify_foc)

    ksub = sub.add_parser("kernel", help="kernel inspection").add_subparsers(
        dest="kernel_command", required=True)
    command(ksub, "dump", "dump K, Q and scalars to CSV", cmd_kernel_dump,
            "kernel dump")
    psub = sub.add_parser("posterior", help="posterior inspection").add_subparsers(
        dest="posterior_command", required=True)
    p = command(psub, "probe", "moments of the canonical posterior at alpha_bar",
                cmd_posterior_probe, "posterior probe")
    p.add_argument("--alpha-bar", type=float, required=True)
    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    """Parse, load the config, run one subcommand, write its tables and the manifest."""
    args = PARSER.parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = with_seed(load_config(args.config), args.seed)
        outdir = Path(args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or cfg.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        t1 = time.perf_counter()
        tables, summary, status = args.func(args, cfg)
        t2 = time.perf_counter()
        workers = _write_tables(outdir, tables)
        times = [("compute_s", f"{t2 - t1:.3f}"), ("write_s", f"{time.perf_counter() - t2:.3f}"),
                 ("write_workers", workers)]
        if summary is not None:
            print(f"{summary} -> {outdir}")
        write_csv(outdir / "manifest.csv", ["key", "value"],
                  zip(*_manifest(cfg, args.label, t0, times)))
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: adkyle.cli: out of memory; lower grid.n or --paths", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
