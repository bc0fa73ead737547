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

The module level imports only what every subcommand runs (config, model,
kernel); each handler imports the rest of its own stage, so a call loads, and
without bytecode caching compiles, only the code of its subcommand.
"""

from __future__ import annotations

import argparse
import locale
import math
import os
import sys
import time
from dataclasses import astuple, fields
from datetime import datetime, timezone
from pathlib import Path

# one BLAS thread, set before numpy loads: a thread count splits a product's sums
# differently, and the CSV bytes must not depend on it (nor on the caller's setting)
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np

from . import __version__
from .config import COUNT_LIMIT, RunConfig, config_hash, config_model, load_config, with_seed
from .kernel import RANK_TOL, build_canonical_kernel, centering_matrix
from .model import prior_moments

OUTPUT_DIR_ENV = "ADKYLE_OUTPUT_DIR"
CSV_BLOCK_CELLS = 1 << 14  # cells formatted per write: bounds the text held at once
SHORTEST_MIN_VALUES = 2048  # distinct values from which numpy prints a dtype group (README)


def _numeric(column) -> bool:
    """A bool, integer or float array whose items view as an unsigned integer (no longdouble)."""
    return isinstance(column, np.ndarray) and column.dtype.kind in "biuf" and column.itemsize <= 8


def _cells(column) -> list[str]:
    """Text of a column that is not a numeric array: repr for floats, str otherwise; a
    field with a comma, a quote or a line break is quoted, its quotes doubled (csv's rule)."""
    text = [repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in column]
    return ['"' + t.replace('"', '""') + '"' if '"' in t or "," in t or "\n" in t or "\r" in t
            else t for t in text]


def _cuts(columns: list) -> range:
    """Start rows of a table's blocks, whose row count is the step: at most CSV_BLOCK_CELLS
    cells, or one row if it alone is wider.  An array column has `size` rows."""
    return range(0, max((c.size if isinstance(c, np.ndarray) else len(c) for c in columns),
                        default=0), max(1, CSV_BLOCK_CELLS // max(len(columns), 1)))


def _rows(column, start: int, stop: int):
    """Rows start:stop of a column; an N-d array's entries in C order, of which only the
    leading rows the cut spans are copied."""
    if not isinstance(column, np.ndarray) or column.ndim < 2:
        return column[start:stop]
    width = max(1, math.prod(column.shape[1:]))  # an empty row: the cut is empty
    first = start // width
    return column[first:-(-stop // width)].reshape(-1)[start - first * width:stop - first * width]


def _block_text(block) -> str | bytes:
    """CSV text of one block of equal-length columns (README's text contract): repr for
    floats, str otherwise, each distinct bit pattern of a dtype once (0.0 and -0.0 differ),
    so a value in several columns prints once.  A block of numeric arrays only, one of whose
    groups has SHORTEST_MIN_VALUES or more, is printed by `_shortest`, as ASCII bytes."""
    by_dtype, groups = {}, []  # groups: (columns, distinct values, each column's indices)
    for j, column in enumerate(block):
        if _numeric(column):
            by_dtype.setdefault(column.dtype, []).append(j)
    for js in by_dtype.values():
        # raises ValueError on unequal lengths; the stack may swap the byte order
        stacked = np.stack([block[j] for j in js])
        bits, inverse = np.unique(stacked.view(f"u{stacked.itemsize}"), return_inverse=True)
        groups.append((js, bits.view(stacked.dtype), inverse.reshape(stacked.shape)))
        del stacked  # only the cell texts outlive the pass (peak memory)
    if all(map(_numeric, block)) and max(len(group[1]) for group in groups) >= SHORTEST_MIN_VALUES:
        from ._shortest import rows
        return rows(len(block), groups)
    cells = [None if _numeric(column) else _cells(column) for column in block]
    for js, values, inverse in groups:
        text = repr if values.dtype.kind == "f" else str
        distinct = np.array(list(map(text, values.tolist())), dtype=object)
        for j, column in zip(js, inverse):
            cells[j] = distinct[column].tolist()
    n, k = len(cells[0]), len(cells)
    if k == 1:  # csv writes a row's only field as "" when it is empty
        cells = [[t or '""' for t in cells[0]]]
    text = [","] * (2 * k * n)
    for j, column in enumerate(cells):
        text[2 * j::2 * k] = column  # raises ValueError on a column of another length
    text[2 * k - 1::2 * k] = ["\r\n"] * n
    return "".join(text)


def _write_tables(outdir: Path, tables: dict) -> None:
    """Write each table to outdir/name: its header, then the text of each block in order."""
    encoding = locale.getpreferredencoding(False)  # open()'s default for text

    def encoded(block) -> bytes:  # the text is freed once written, not held through the next
        text = _block_text(block)
        return text.encode(encoding) if isinstance(text, str) else text

    for name, (header, columns) in tables.items():
        columns = list(columns)
        with open(outdir / name, "wb") as fh:
            fh.write(encoded([[field] for field in header]))
            for start in (cuts := _cuts(columns)):
                fh.write(encoded([_rows(column, start, start + cuts.step) for column in columns]))


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
        ("wall_time_s", f"{time.perf_counter() - t0:.6f}"),
        *times,
        ("created_utc", datetime.now(timezone.utc).isoformat()),
    ]


def _pipeline(cfg: RunConfig):
    grid, noise, family = config_model(cfg)
    return grid, noise, family, build_canonical_kernel(family, noise, grid)


def _solved(cfg: RunConfig):
    from .equilibrium import equilibrium_demand, solve_alpha_star

    grid, noise, family, kern = _pipeline(cfg)
    eq = solve_alpha_star(kern.I)
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
    if not 1 <= args.paths <= COUNT_LIMIT:
        raise ValueError(f"adkyle.cli: --paths must be in [1, 2**40], got {args.paths}")
    if args.paths * cfg.n >= SHORTEST_MIN_VALUES:  # paths.csv is printed by `_shortest`:
        from . import _shortest  # noqa: F401 -- compiled first, off the peak memory
    from .orderflow import (cumulative_flow, log_likelihoods, posterior_weights, price_schedule,
                            simulate_increments)

    grid, noise, family, _, _, w_star = _solved(cfg)
    s = _signal(args, family)

    # path p is row p of the seed's path-shock stream, so a path's rows do not depend on --paths
    n_paths = args.paths
    increments = simulate_increments(w_star[s], noise, grid, cfg.seed, n_paths)
    log_lik = log_likelihoods(w_star, increments, noise, grid)
    y = cumulative_flow(increments)
    del increments  # two (n_paths, n) arrays at a time: y and, next, the prices
    pi = posterior_weights(log_lik)
    price = price_schedule(pi, family)
    # the labels as str objects, so a block's cells are the labels, not copies of them
    path_id, labels = np.arange(n_paths)[:, None], np.array(family.labels, dtype=object)
    tables = {
        "paths.csv": (["path_id", "x", "y"], np.broadcast_arrays(path_id, grid.nodes, y)),
        "pathwise_prices.csv": (["path_id", "x", "price"],
                                np.broadcast_arrays(path_id, grid.nodes, price)),
        "pathwise_posterior.csv": (["path_id", "signal", "log_lik", "pi"],
                                   np.broadcast_arrays(path_id, labels, log_lik, pi)),
    }
    return tables, f"simulate: {n_paths} path(s) under signal {family.labels[s]}", 0


def cmd_impact(args, cfg: RunConfig):
    from .analytics import impact_surface, spread_indices

    grid, noise, family, _, _, w_star = _solved(cfg)
    mu, sbar = prior_moments(family, grid)
    idx = spread_indices(grid.nearest(mu - 3.0 * sbar, margin=1),
                         grid.nearest(mu + 3.0 * sbar, margin=1), cfg.n_sub)
    points = grid.nodes[idx]
    values, errs = impact_surface(points, points, w_star, family, noise, grid,
                                  conditioned_on=cfg.conditioned_on)
    tables = {"impact_kernel.csv": (["x", "y", "lambda", "std_err"],
                                    np.broadcast_arrays(points[:, None], points, values, errs))}
    return tables, f"impact: {len(points)}x{len(points)} kernel estimates", 0


def cmd_efficiency(args, cfg: RunConfig):
    from .analytics import efficiency_sweep

    sweep = efficiency_sweep()
    rows = [(eq.I, eq.alpha_star, eq.ie, eq.ie_std_err, cfg.n_samples, cfg.seed) for eq in sweep]
    tables = {"efficiency.csv": (["I", "alpha_star", "ie", "std_err", "n_samples", "seed"],
                                 zip(*rows))}
    return tables, "efficiency: " + " ".join(f"I={eq.I}:{eq.ie:.4f}" for eq in sweep), 0


def cmd_options(args, cfg: RunConfig):
    from .options import bl_decompose, bl_reconstruct, demand_signature

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
    from .objective import FocReport, foc_terms, zero_impact_direction

    grid, noise, family, _, eq, w_star = _solved(cfg)
    names = ("own_demand", "payoff_row", "zero_impact")
    stack = np.stack([w_star[0], family.eta[0], zero_impact_direction(noise, grid)])
    reports = foc_terms(stack, w_star, family, 0, noise, grid, phi_residual=eq.phi_residual)
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
    values = np.concatenate([kern.K.ravel(), centering_matrix(I).ravel()]).tolist()
    tables = {"kernel.csv": (
        ["matrix", "row", "col", "value"],
        [[name for name in names for _ in range(I * I)] + ["c", "exchangeable", "rank_tol"],
         row_idx + [0, 0, 0],
         col_idx + [0, 0, 0],
         values + [kern.c, int(kern.exchangeable), RANK_TOL]])}
    return tables, f"kernel dump: I={kern.I} c={kern.c:.6f} exchangeable={kern.exchangeable}", 0


def cmd_posterior_probe(args, cfg: RunConfig):
    from .posterior import QUAD_TOL, true_belief_moments

    # only I is read; grid and noise are built so that a bad config fails as elsewhere
    I = config_model(cfg)[2].I
    # the truth is index 0; C 1 = 0 makes (Q C Q)_tt = C_tt = E[q_t (1 - q_t)]
    not_true, spread = true_belief_moments(args.alpha_bar, I)
    rows = [("m1", i, not_true / (I - 1) if i else 1.0 - not_true) for i in range(I)]
    rows += [("qcq_diag", 0, spread), ("quad_tol", 0, QUAD_TOL)]
    tables = {"posterior_probe.csv": (["quantity", "index", "value"], zip(*rows))}
    return tables, f"posterior probe: alpha_bar={args.alpha_bar} I={I} m1_true={rows[0][2]:.6f}", 0


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
        _write_tables(outdir, tables)
        times = [("compute_s", f"{t2 - t1:.6f}"), ("write_s", f"{time.perf_counter() - t2:.6f}")]
        if summary is not None:
            print(f"{summary} -> {outdir}")
        _write_tables(outdir, {"manifest.csv": (["key", "value"],
                                                zip(*_manifest(cfg, args.label, t0, times)))})
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: adkyle.cli: out of memory; lower grid.n or --paths", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
