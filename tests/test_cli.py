"""Command-line pipeline: outputs, overrides, and failure modes."""

import argparse
import csv
import dataclasses
import itertools
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import adkyle
import adkyle.cli
import adkyle.equilibrium
import adkyle.objective
from adkyle import centering_matrix, true_belief_moments
from adkyle.cli import OUTPUT_DIR_ENV, _solved, _write_tables, main
from adkyle.config import config_model, load_config, parse_config_text, with_seed
from adkyle._rng import PATH_SHOCKS, derive_seed, standard_normal_matrix
from adkyle.orderflow import (
    PATH_BLOCK_SIZE,
    log_likelihoods,
    posterior_weights,
    price_schedule,
    simulate_increments,
)
from adkyle.posterior import QUAD_TOL
from conftest import SUBCOMMANDS, count_block_generators

FAST_CONFIG = """
grid.n = 101
mc.seed = 3
mc.n_samples = 20000
mc.n_paths = 400
impact.n_sub = 9
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FAST_CONFIG)
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_solve_writes_equilibrium_and_demand(cfg_file, tmp_path, capsys):
    out = tmp_path / "solve_out"
    assert main(["solve", "-c", str(cfg_file), "-o", str(out)]) == 0
    assert (out / "equilibrium.csv").exists()
    assert (out / "demand_surface.csv").exists()
    manifest = dict(read_rows(out / "manifest.csv")[1:])
    assert manifest["python_version"] == ".".join(map(str, sys.version_info[:3]))
    assert manifest["numpy_version"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["blas"] == f"{blas['name']} {blas['version']}"
    # the handler's and the writer's times follow the wall time
    keys = [row[0] for row in read_rows(out / "manifest.csv")[1:]]
    assert keys[keys.index("wall_time_s"):][:4] == ["wall_time_s", "compute_s", "write_s",
                                                    "created_utc"]
    assert min(float(manifest["compute_s"]), float(manifest["write_s"])) >= 0.0
    rows = dict(
        (r[0], r[1]) for r in read_rows(out / "equilibrium.csv")[1:]
    )
    assert 1.0 < float(rows["alpha_star"]) < 2.0
    header = read_rows(out / "demand_surface.csv")[0]
    assert header[0] == "x"
    assert len(header) == 3  # two signal columns


def test_solve_writes_solver_trace(cfg_file, tmp_path, capsys):
    out = tmp_path / "solve_out"
    assert main(["solve", "-c", str(cfg_file), "-o", str(out)]) == 0
    eq = dict((r[0], r[1]) for r in read_rows(out / "equilibrium.csv")[1:])
    assert 0.0 < float(eq["alpha_std_err"]) < 0.05
    trace = read_rows(out / "solver_trace.csv")
    assert trace[0] == ["eval", "alpha_bar", "phi", "stage"]
    n_evals = 1 + int(eq["n_doublings"]) + int(eq["n_bisections"])
    assert [int(r[0]) for r in trace[1:]] == list(range(1, n_evals + 1))
    assert {r[3] for r in trace[1:]} == {"bracket", "refine"}
    assert [eq["alpha_star"], eq["phi_residual"]] in [r[1:3] for r in trace[1:]]
    assert f"{n_evals} Phi evaluations" in capsys.readouterr().out


def test_posterior_probe_draws_no_noise(cfg_file, tmp_path, monkeypatch):
    # the probe reads the solver's quadrature: its rows are true_belief_moments, bit for bit
    draws = count_block_generators(monkeypatch)
    out = tmp_path / "probe"
    assert main(["posterior", "probe", "--alpha-bar", "1.0", "-c", str(cfg_file), "-o", str(out)]) == 0
    assert draws == []
    not_true, spread = true_belief_moments(1.0, 2)
    assert read_rows(out / "posterior_probe.csv") == [
        ["quantity", "index", "value"],
        ["m1", "0", repr(1.0 - not_true)],
        ["m1", "1", repr(not_true)],
        ["qcq_diag", "0", repr(spread)],
        ["quad_tol", "0", repr(QUAD_TOL)],
    ]


def test_impact_draws_nothing_and_ignores_seed_and_path_count(cfg_file, tmp_path,
                                                               monkeypatch):
    # the kernel is a closed form in the quadrature: no block draw, and its bytes
    # are the same for every mc.seed and mc.n_paths
    draws = count_block_generators(monkeypatch)
    kernels = []
    for n_paths, seed_arg in ((400, []), (400, ["--seed", "11"]), (2 * PATH_BLOCK_SIZE + 1, [])):
        cfg_file.write_text(FAST_CONFIG.replace("mc.n_paths = 400", f"mc.n_paths = {n_paths}"))
        out = tmp_path / f"impact_{n_paths}_{len(seed_arg)}"
        assert main(["impact", "-c", str(cfg_file), "-o", str(out)] + seed_arg) == 0
        kernels.append((out / "impact_kernel.csv").read_bytes())
    assert draws == []
    assert kernels[0].startswith(b"x,y,lambda,std_err\r\n")
    assert kernels[1] == kernels[0] and kernels[2] == kernels[0]


def test_posterior_probe_builds_no_kernel_but_checks_the_model(cfg_file, tmp_path, capsys,
                                                               monkeypatch):
    # the probe reads only I; a bad grid, noise or family still ends in one error line
    def no_kernel(*args):
        raise AssertionError("posterior probe built the canonical kernel")

    monkeypatch.setattr(adkyle.cli, "build_canonical_kernel", no_kernel)
    argv = ["posterior", "probe", "--alpha-bar", "1.0", "-o", str(tmp_path / "out"), "-c"]
    assert main(argv + [str(cfg_file)]) == 0
    for line in ("grid.n = 2", "noise.level = -1", "family.means = 200 300"):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"mc.seed = 1\n{line}\n")
        assert main(argv + [str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: adkyle.") and len(err.splitlines()) == 1


def test_verify_foc_draws_nothing_and_ignores_seed_and_path_count(cfg_file, tmp_path,
                                                                  monkeypatch):
    # every term and the finite difference are quadratures: no block draw, and the report's
    # bytes are the same for every mc.seed and mc.n_paths
    draws = count_block_generators(monkeypatch)
    reports = []
    for n_paths, seed_arg in ((400, []), (400, ["--seed", "11"]), (2 * PATH_BLOCK_SIZE + 1, [])):
        cfg_file.write_text(FAST_CONFIG.replace("mc.n_paths = 400", f"mc.n_paths = {n_paths}"))
        out = tmp_path / f"foc_{n_paths}_{len(seed_arg)}"
        assert main(["verify-foc", "-c", str(cfg_file), "-o", str(out)] + seed_arg) == 0
        reports.append((out / "foc_report.csv").read_bytes())
    assert draws == []
    assert reports[0].startswith(b"direction,payoff_term,")
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_verify_foc_passes_at_low_noise(cfg_file, tmp_path, capsys):
    # eps scales with |W|_inf / |v|_inf, and W with the noise, so the difference stays in its
    # linear range; an absolute floor on eps failed the payoff-row direction here
    cfg_file.write_text(FAST_CONFIG + "noise.level = 1e-7\n")
    out = tmp_path / "foc"
    assert main(["verify-foc", "-c", str(cfg_file), "-o", str(out)]) == 0
    rows = read_rows(out / "foc_report.csv")
    assert [(r[0], r[-1]) for r in rows[1:]] == [
        ("own_demand", "pass"), ("payoff_row", "pass"), ("zero_impact", "pass")]
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("level", ["1e-6", "1e-10", "1e-13"])
def test_verify_foc_passes_on_sloped_low_noise(level, cfg_file, tmp_path, capsys):
    # sigma rises from the level to level + 16: the demand scales with sigma^2, so every
    # direction, the zero-impact one included, stays a best response at each level
    cfg_file.write_text(FAST_CONFIG + f"noise.level = {level}\nnoise.slope = 1\n")
    out = tmp_path / "foc"
    assert main(["verify-foc", "-c", str(cfg_file), "-o", str(out)]) == 0
    rows = read_rows(out / "foc_report.csv")
    assert [(r[0], r[-1]) for r in rows[1:]] == [
        ("own_demand", "pass"), ("payoff_row", "pass"), ("zero_impact", "pass")]
    assert "FAIL" not in capsys.readouterr().out


def _foc_rows(cfg_file, text, out):
    """verify-foc's exit status and its report's rows, as {direction: {column: value}}."""
    cfg_file.write_text(text)
    status = main(["verify-foc", "-c", str(cfg_file), "-o", str(out)])
    header, *rows = read_rows(out / "foc_report.csv")
    return status, {r[0]: dict(zip(header[1:], [*map(float, r[1:-1]), r[-1]])) for r in rows}


@pytest.mark.parametrize("level", ["1e-7", "1e9"])
def test_verify_foc_bounds_scale_with_the_terms(level, cfg_file, tmp_path, capsys):
    # W scales with sigma, so the terms and both bounds of the own-demand and zero-impact
    # rows scale with the noise level (the payoff row's v = eta_0 does not): no absolute
    # allowance passes any 1e-7 row, nor fails a 1e9 row on rounding
    status, rows = _foc_rows(cfg_file, FAST_CONFIG + f"noise.level = {level}\n", tmp_path / "a")
    _, unit = _foc_rows(cfg_file, FAST_CONFIG, tmp_path / "unit")
    assert status == 0
    for name, row in rows.items():
        assert row["status"] == "pass"
        ratio = row["payoff_term"] / unit[name]["payoff_term"]
        # to rounding: the bounds hold the Gram's gap to alpha^2 Q and |fd(eps) - fd(eps/2)|
        for bound in ("residual_bound", "fd_bound"):
            assert row[bound] / unit[name][bound] == pytest.approx(ratio, rel=1e-2), (name, bound)
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("wrong", ["scaled_1.01", "sqrt_kernel_sloped"])
def test_verify_foc_fails_on_a_wrong_demand(wrong, cfg_file, tmp_path, capsys, monkeypatch):
    # both demands give the posterior the canonical law (sigma-Gram alpha^2 Q), so only the
    # first-order condition itself tells them from the equilibrium
    text = FAST_CONFIG + ("noise.slope = 1\n" if wrong == "sqrt_kernel_sloped" else "")
    grid = config_model(parse_config_text(text))[0]
    real = adkyle.equilibrium.equilibrium_demand

    def demand(eq, kern, family, noise):
        if wrong == "scaled_1.01":
            return 1.01 * real(eq, kern, family, noise)
        # a demand without the sigma^2 factor: alpha* (L^+ Q)^T eta, L the root of
        # int eta eta^T / sigma^2, so W / sigma^2 leaves the payoff span under sloped noise
        lam, u = np.linalg.eigh((family.eta * (grid.quad_weights / np.square(noise.sigma)))
                                @ family.eta.T)
        inv_root = np.where(lam > 1e-12 * lam.max(), 1.0 / np.sqrt(np.abs(lam)), 0.0)
        return eq.alpha_star * ((u * inv_root) @ u.T @ centering_matrix(kern.I)).T @ family.eta

    monkeypatch.setattr(adkyle.equilibrium, "equilibrium_demand", demand)
    status, rows = _foc_rows(cfg_file, text, tmp_path / "foc")
    assert status == 1
    assert "fail" in [row["status"] for row in rows.values()]
    assert "(FAIL)" in capsys.readouterr().out


def test_simulate_writes_path_outputs(cfg_file, tmp_path):
    out = tmp_path / "sim_out"
    code = main(
        ["simulate", "-c", str(cfg_file), "-o", str(out), "--paths", "2", "--signal", "1"]
    )
    assert code == 0
    for name in ("paths.csv", "pathwise_prices.csv", "pathwise_posterior.csv"):
        assert (out / name).exists()
    posterior = read_rows(out / "pathwise_posterior.csv")
    assert posterior[0][:2] == ["path_id", "signal"]


def _simulate(cfg_file, tmp_path, seed, n_paths):
    """Run simulate; return its paths.csv lines, y per path, and the solved grid, noise, demand."""
    out = tmp_path / f"sim_{seed}_{n_paths}"
    assert main(["simulate", "-c", str(cfg_file), "-o", str(out),
                 "--paths", str(n_paths), "--seed", str(seed)]) == 0
    lines = (out / "paths.csv").read_text().splitlines()[1:]
    y = np.array([float(line.split(",")[2]) for line in lines]).reshape(n_paths, -1)
    grid, noise, _, _, _, w_star = _solved(with_seed(load_config(cfg_file), seed))
    return lines, y, grid, noise, w_star


def test_simulate_draws_every_path_from_one_shock_stream(cfg_file, tmp_path):
    lines7, y7, grid, noise, w7 = _simulate(cfg_file, tmp_path, 7, 3)
    drift, scale = w7[0][:-1] * grid.h, noise.sigma[:-1] * math.sqrt(grid.h)
    # path p is row p of the seed's path-shock stream
    stream = standard_normal_matrix(derive_seed(7, *PATH_SHOCKS), 3, grid.n - 1, PATH_BLOCK_SIZE)
    assert np.all(y7[:, 0] == 0.0)
    assert np.array_equal(y7[:, 1:], np.cumsum(drift + scale * stream, axis=1))
    # so a path's rows do not depend on --paths
    lines5, *_ = _simulate(cfg_file, tmp_path, 7, 5)
    assert lines5[:len(lines7)] == lines7
    # and seeds do not share paths: path 1 of seed 7 is not path 0 of seed 8
    _, y8, _, _, w8 = _simulate(cfg_file, tmp_path, 8, 1)
    shocks7 = (np.diff(y7[1]) - drift) / scale
    shocks8 = (np.diff(y8[0]) - w8[0][:-1] * grid.h) / scale
    assert np.allclose(shocks7, stream[1], rtol=0.0, atol=1e-9)
    assert not np.allclose(shocks7, shocks8, rtol=0.0, atol=1e-3)


def test_outputs_are_deterministic_on_rerun(cfg_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "-c", str(cfg_file), "-o", str(out1)]) == 0
    assert main(["solve", "-c", str(cfg_file), "-o", str(out2)]) == 0
    for name in ("equilibrium.csv", "demand_surface.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


EQUILIBRIUM_KEYS = ["key", "alpha_star", "alpha_raw", "c", "I", "phi_residual", "alpha_std_err",
                    "bracket_hi", "n_doublings", "n_bisections", "n_samples", "seed"]
EFFICIENCY_HEADER = ["I", "alpha_star", "ie", "std_err", "n_samples", "seed"]
PROBE_KEYS = [("quantity", "index"), ("m1", "0"), ("m1", "1"), ("qcq_diag", "0"), ("quad_tol", "0")]


def test_solve_and_efficiency_schema_is_fixed_and_the_root_ignores_the_mc_keys(
    cfg_file, tmp_path
):
    # the benchmark reads these columns; the root, ie and the probe's moments
    # depend on alpha_bar and I alone, so neither mc.seed nor mc.n_samples
    # moves them (both are only recorded)
    roots, ies, probes = set(), set(), set()
    for seed in (0, 7, 2**63):
        for n_samples in (10_000, 200_000):
            cfg_file.write_text(FAST_CONFIG.replace("mc.seed = 3", f"mc.seed = {seed}")
                                .replace("mc.n_samples = 20000", f"mc.n_samples = {n_samples}"))
            out = tmp_path / f"run_{seed}_{n_samples}"
            assert main(["solve", "-c", str(cfg_file), "-o", str(out)]) == 0
            assert main(["efficiency", "-c", str(cfg_file), "-o", str(out)]) == 0
            assert main(["posterior", "probe", "--alpha-bar", "1.0", "-c", str(cfg_file),
                         "-o", str(out)]) == 0
            assert [tuple(r[:2]) for r in read_rows(out / "posterior_probe.csv")] == PROBE_KEYS
            probes.add((out / "posterior_probe.csv").read_bytes())
            eq = read_rows(out / "equilibrium.csv")
            assert [r[0] for r in eq] == EQUILIBRIUM_KEYS
            eq = dict(eq[1:])
            assert (eq["n_samples"], eq["seed"]) == (str(n_samples), str(seed))
            eff = read_rows(out / "efficiency.csv")
            assert eff[0] == EFFICIENCY_HEADER
            assert {(r[4], r[5]) for r in eff[1:]} == {(str(n_samples), str(seed))}
            roots.add((eq["alpha_star"], tuple(r[1] for r in eff[1:])))
            ies.add(tuple(r[2] for r in eff[1:]))
    assert len(roots) == 1 and len(ies) == 1 and len(probes) == 1


def test_seed_flag_changes_outputs(cfg_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "-c", str(cfg_file), "-o", str(out1)]) == 0
    assert main(["solve", "-c", str(cfg_file), "-o", str(out2), "--seed", "99"]) == 0
    assert (out1 / "equilibrium.csv").read_bytes() != (
        out2 / "equilibrium.csv"
    ).read_bytes()


def test_output_dir_environment_variable(cfg_file, tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(env_dir))
    assert main(["solve", "-c", str(cfg_file)]) == 0
    assert (env_dir / "equilibrium.csv").exists()
    # an explicit flag still wins over the environment
    flag_dir = tmp_path / "from_flag"
    assert main(["solve", "-c", str(cfg_file), "-o", str(flag_dir)]) == 0
    assert (flag_dir / "equilibrium.csv").exists()


def test_csv_writer_matches_per_cell_reference(tmp_path, monkeypatch):
    floats = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 0.1, -2.5])
    columns = [
        floats,
        floats.astype(np.float32),
        np.array([-3, 0, 1, 2**62, 4, 5, 6, 7], dtype=np.int64),
        [0, 1, -2, 2**70, 4, 5, 6, 7],
        ["s1", "a,b", 'q"x', "", " sp", "line\nbreak", "s7", "s8"],
        [1.5, 2, "lbl", np.float64(0.1), np.float32(0.1), np.int64(3), -0.0, float("nan")],
        # arrays that are not numeric go through the per-item rule too: a longdouble
        # prints as its float, an object array's float32 as the float it widens to
        np.array([1.1, 0.1, -0.0, np.inf, 2.5, 1e300, 3.0, np.nan], dtype=np.longdouble),
        np.array([np.float32(0.1), "x,y", 7, 1.5, None, np.int8(-1), np.longdouble(1.1), ""],
                 dtype=object),
    ]
    header = ["f64", "f32", "i64", "int", "label", "mixed", "f128", "object"]
    # every numeric kind in a table of numeric arrays only, which `_shortest` prints when
    # the threshold is 0: NaN payloads, a signalling float16 NaN, the integer extremes
    numeric = [
        floats,
        floats.astype(np.float32),
        np.array([0x7E01, 0x7C01, 0xFC00, 0x8000, 1, 0x7BFF, 0x2E66, 0xC100],
                 dtype=np.uint16).view(np.float16),
        floats.astype(">f8"),
        np.array([True, False] * 4),
        np.array([-128, 127, 0, -1, 5, 6, 7, 8], dtype=np.int8),
        np.array([2**64 - 1, 0, 1, 10**19, 4, 5, 6, 7], dtype=np.uint64),
        np.array([-2**63, 2**63 - 1, 0, -1, -10, 5, 6, 7], dtype=np.int64),
    ]
    numeric_header = ["f8", "f4", "f2", ">f8", "b1", "i1", "u8", "i8"]

    def cell(v):
        return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)

    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([cell(v) for v in row])
    _per_cell_csv(tmp_path / "ref_numeric.csv", numeric_header, numeric)
    for threshold in (adkyle.cli.SHORTEST_MIN_VALUES, 0):  # 0: every numeric block is printed
        monkeypatch.setattr(adkyle.cli, "SHORTEST_MIN_VALUES", threshold)  # by `_shortest`
        out = tmp_path / f"threshold{threshold}"
        out.mkdir()
        _write_tables(out, {"out.csv": (header, columns), "numeric.csv": (numeric_header, numeric)})
        assert (out / "out.csv").read_bytes() == ref.read_bytes()
        assert b"nan,nan,-3,0,s1,1.5,1.1,0.10000000149011612\r\n" in (out / "out.csv").read_bytes()
        assert (out / "numeric.csv").read_bytes() == (tmp_path / "ref_numeric.csv").read_bytes()


def test_csv_writer_writes_block_by_block(tmp_path, monkeypatch):
    # nine-cell blocks: ten rows of three columns make three full blocks and a partial
    # one, by the repr path and, at threshold 0, by `_shortest`
    monkeypatch.setattr(adkyle.cli, "CSV_BLOCK_CELLS", 9)
    x = np.tile(np.array([0.0, -0.0, 0.1]), 4)[:10]
    tables = {
        "numeric.csv": (["i", "x", "y"], [np.arange(10), x, np.linspace(-1.0, 1.0, 10)]),
        "mixed.csv": (["label", "x", "n"], [[f"s,{i}" for i in range(10)], x, list(range(10))]),
    }
    for name, (header, columns) in tables.items():
        _per_cell_csv(tmp_path / f"ref_{name}", header, columns)
    for threshold in (adkyle.cli.SHORTEST_MIN_VALUES, 0):
        monkeypatch.setattr(adkyle.cli, "SHORTEST_MIN_VALUES", threshold)
        out = tmp_path / str(threshold)
        out.mkdir()
        _write_tables(out, tables)
        for name in tables:
            assert (out / name).read_bytes() == (tmp_path / f"ref_{name}").read_bytes()
        for bad in ([np.arange(10), np.arange(7)], [np.arange(10), list(range(7))],
                    [np.arange(10), np.arange(7.0)]):
            with pytest.raises(ValueError):  # unequal columns fail
                _write_tables(out, {"bad.csv": (["a", "b"], bad)})


@pytest.mark.parametrize(("threshold", "layout"), [
    pytest.param(math.inf, "columns", id="repr"),
    pytest.param(0, "columns", id="shortest"),
    pytest.param(math.inf, "broadcast", id="repr-broadcast"),
    pytest.param(0, "broadcast", id="shortest-broadcast"),
])
def test_write_memory_does_not_grow_with_the_block_count(threshold, layout, tmp_path,
                                                         monkeypatch):
    # each block's text is freed once written, before the next block is formatted, and a
    # block of a broadcast (rows, 401) table copies only the rows it spans: one block and
    # 30 blocks of the same shape peak alike, by the repr path and by `_shortest`
    rows = 5 * 401
    monkeypatch.setattr(adkyle.cli, "CSV_BLOCK_CELLS", 3 * rows)
    monkeypatch.setattr(adkyle.cli, "SHORTEST_MIN_VALUES", threshold)
    table = np.random.default_rng(5).standard_normal((3, 30 * rows))
    if layout == "broadcast":  # path_id, x and y as simulate passes them
        y = table[0].reshape(-1, 401)
        table = np.broadcast_arrays(np.arange(len(y))[:, None], np.linspace(-8.0, 8.0, 401), y)
    peaks = []
    for n_blocks in (1, 30):
        tables = {"t.csv": (["a", "b", "c"], [column[:n_blocks * len(column) // 30]
                                              for column in table])}
        _write_tables(tmp_path, tables)  # imports and caches first
        tracemalloc.start()
        try:
            _write_tables(tmp_path, tables)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    block_text = (tmp_path / "t.csv").stat().st_size / 30
    assert abs(peaks[1] - peaks[0]) < block_text / 2, (peaks, block_text)


def _small_blocks(monkeypatch) -> None:
    """Cut `simulate --paths 40`'s tables in 96-cell blocks: pathwise_posterior.csv's 80 rows
    of 4 cells in four blocks, paths.csv's 4,040 rows of 3 cells in 127."""
    monkeypatch.setattr(adkyle.cli, "CSV_BLOCK_CELLS", 96)


SIMULATE_40 = ["simulate", "--paths", "40", "--signal", "1"]


def test_manifests_carry_no_write_workers_row(cfg_file, tmp_path, monkeypatch):
    # one process writes every table, at the benchmark's seed-7 grid.n = 401 too, so the
    # manifest counts no writers
    wide = tmp_path / "wide.cfg"
    wide.write_text(FAST_CONFIG.replace("grid.n = 101", "grid.n = 401").replace(
        "mc.seed = 3", "mc.seed = 7"))
    commands = [(cfg_file, argv) for argv in (
        ["solve"], ["impact"], ["verify-foc"], ["simulate", "--paths", "3"])] + [
        (wide, argv) for argv in (["efficiency"], ["solve"], ["posterior", "probe", "--alpha-bar",
                                  "1.0"], ["options"], ["kernel", "dump"])]
    outs = tmp_path / "out"
    for i, (cfg, argv) in enumerate(commands):
        assert main([*argv, "-c", str(cfg), "-o", str(outs / str(i))]) == 0
    _small_blocks(monkeypatch)
    assert main([*SIMULATE_40, "-c", str(cfg_file), "-o", str(outs / "small_blocks")]) == 0
    for out in outs.iterdir():
        keys = [row[0] for row in read_rows(out / "manifest.csv")[1:]]
        assert "write_s" in keys and "write_workers" not in keys


_BLOCK_TEXT = adkyle.cli._block_text


def _fails(block):
    raise ValueError("adkyle.cli: the block failed")


def _out_of_memory(block):
    raise MemoryError


# fault -> (patched _block_text, the one error line the run must end with)
FAULTS = {
    "_fails": (_fails, "error: adkyle.cli: the block failed"),
    "_out_of_memory": (_out_of_memory,
                       "error: adkyle.cli: out of memory; lower grid.n or --paths"),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_a_fault_in_the_writer_ends_the_run_with_one_error_line(fault, cfg_file, tmp_path,
                                                                monkeypatch, capsys):
    # the header and two blocks of paths.csv are formatted, then the third block fails
    patched, line = FAULTS[fault]
    calls = []

    def block_text(block):
        calls.append(len(block))
        return patched(block) if len(calls) > 3 else _BLOCK_TEXT(block)

    _small_blocks(monkeypatch)
    monkeypatch.setattr(adkyle.cli, "_block_text", block_text)
    out = tmp_path / "sim"
    assert main([*SIMULATE_40, "-c", str(cfg_file), "-o", str(out)]) == 2
    assert capsys.readouterr() == ("", line + "\n")
    assert len(calls) == 4
    assert not (out / "manifest.csv").exists()


def _per_cell_csv(path, header, columns):
    """Reference rendering: csv.writer over each cell's text (repr for floats, str otherwise)."""
    def cell(v):
        return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([cell(v) for v in row])


def _float_bits(dtype):
    """Bit patterns of +-0, +-inf, NaNs with different payloads, subnormals and plain values."""
    width = 8 * np.dtype(dtype).itemsize
    tiny = np.finfo(dtype).smallest_subnormal
    values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 0.1, -2.5, tiny, -tiny, 3 * tiny],
                      dtype=dtype)
    bits = values.view(f"u{width // 8}").tolist()
    inf, sign = bits[2], 2**(width - 1)
    nans = [inf | 1, inf | 5, sign | inf | 1, 2**width - 1]
    return st.one_of(st.sampled_from(bits + nans), st.integers(0, 2**width - 1))


# column dtype -> (elements, dtype of the drawn values); floats are drawn as bit patterns
NUMERIC_KINDS = {
    "f8": (_float_bits(np.float64), np.uint64),
    ">f8": (_float_bits(np.float64), np.uint64),
    "f4": (_float_bits(np.float32), np.uint32),
    "f2": (_float_bits(np.float16), np.uint16),
    "b1": (st.booleans(), np.bool_),
    "i1": (st.integers(-128, 127), np.int8),
    "u8": (st.one_of(st.just(2**64 - 1), st.integers(0, 2**64 - 1)), np.uint64),
    "i8": (st.one_of(st.just(-2**63), st.integers(-2**63, 2**63 - 1)), np.int64),
}
TEXT = st.text(alphabet=',"\n\r a', max_size=4)  # quote-worthy characters and ""


@st.composite
def _column(draw, n, kinds=(*NUMERIC_KINDS, "U", "O", "list")):
    kind = draw(st.sampled_from(kinds))
    if kind in ("U", "O"):
        return np.array(draw(st.lists(TEXT, min_size=n, max_size=n)),
                        dtype=str if kind == "U" else object)
    if kind == "list":
        return draw(st.lists(st.one_of(st.floats(), st.integers(), TEXT), min_size=n, max_size=n))
    elements, drawn = NUMERIC_KINDS[kind]
    shape = draw(st.sampled_from(["plain", "tile", "repeat", "strided"]))
    size = {"plain": n, "strided": 3 * n}.get(shape)
    if size is None:  # tile and repeat expand a short base; a plain empty column stays empty
        size = draw(st.integers(1, 5))
    values = draw(st.lists(elements, min_size=size, max_size=size))
    base = np.array(values, dtype=drawn).view(kind.lstrip(">")).astype(kind)
    if shape == "tile":
        return np.tile(base, math.ceil(n / size))[:n]
    if shape == "repeat":
        return np.repeat(base, math.ceil(n / size))[:n]
    return base[::3] if shape == "strided" else base


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 30))
    return [draw(_column(n)) for _ in range(draw(st.integers(1, 4)))]


@seed(11)
@given(columns=_tables())
@settings(deadline=None, max_examples=300)
def test_csv_writer_matches_reference_on_generated_tables(columns):
    # repeated cells, every float class, strided and empty columns, cells csv must quote;
    # at threshold 0 `_shortest` prints every table of numeric arrays only
    header = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        ref, out = Path(tmp) / "ref.csv", Path(tmp) / "out.csv"
        _per_cell_csv(ref, header, columns)
        for threshold in (adkyle.cli.SHORTEST_MIN_VALUES, 0):
            patch.setattr(adkyle.cli, "SHORTEST_MIN_VALUES", threshold)
            _write_tables(Path(tmp), {"out.csv": (header, columns)})
            assert out.read_bytes() == ref.read_bytes()


@st.composite
def _numeric_tables(draw):
    n = draw(st.integers(0, 30))
    return [draw(_column(n, tuple(NUMERIC_KINDS))) for _ in range(draw(st.integers(1, 40)))]


@seed(35)
@given(columns=_numeric_tables(), budget=st.integers(1, 64))
@settings(deadline=None, max_examples=100)
def test_per_dtype_formatting_matches_reference_on_generated_blocks(columns, budget):
    # many numeric columns whose dtypes repeat, in blocks of a few cells: blocks split
    # mid-table, and a row wider than the budget is a block of its own
    header = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(adkyle.cli, "CSV_BLOCK_CELLS", budget)
        ref, out = Path(tmp) / "ref.csv", Path(tmp) / "out.csv"
        _per_cell_csv(ref, header, columns)
        for threshold in (adkyle.cli.SHORTEST_MIN_VALUES, 0):  # 0: `_shortest` prints all
            patch.setattr(adkyle.cli, "SHORTEST_MIN_VALUES", threshold)
            _write_tables(Path(tmp), {"out.csv": (header, columns)})
            assert out.read_bytes() == ref.read_bytes()


@st.composite
def _array(draw, shape):
    """A numeric, str or object array of the given shape: plain, every other entry of a wider
    array, or a transpose; or a broadcast view of a base with some axes of length 1, the base
    as drawn, reversed (negative strides) or transposed, of one value (0-d: every stride 0),
    or of every axis but the first (the largest source, larger than small block budgets)."""
    kinds = (*NUMERIC_KINDS, "U", "O")
    layout = draw(st.sampled_from(["plain", "strided", "transposed", "broadcast", "reversed",
                                   "transposed base", "0-d", "leading"]))
    if layout in ("broadcast", "reversed", "transposed base"):
        base = [draw(st.sampled_from([1, n])) for n in shape]
        values = draw(_column(math.prod(base), kinds))
        if layout == "transposed base":
            return np.broadcast_to(values.reshape(base[::-1]).T, shape)
        return np.broadcast_to((values[::-1] if layout == "reversed" else values).reshape(base),
                               shape)
    if layout == "0-d":
        return np.broadcast_to(draw(_column(1, kinds)).reshape(()), shape)
    if layout == "leading":
        return np.broadcast_to(draw(_column(math.prod(shape[1:]), kinds)).reshape(shape[1:]),
                               shape)
    if layout == "strided":
        wide = (*shape[:-1], 2 * shape[-1])
        return draw(_column(math.prod(wide), kinds)).reshape(wide)[..., ::2]
    values = draw(_column(math.prod(shape), kinds))
    return values.reshape(shape[::-1]).T if layout == "transposed" else values.reshape(shape)


@st.composite
def _shaped_tables(draw):
    """1-D columns and 2-D or 3-D arrays of one size, and at times a zero-width array."""
    shape = (draw(st.integers(0, 5)), *draw(st.lists(st.integers(1, 5), min_size=1, max_size=2)))
    columns = [draw(st.one_of(_column(math.prod(shape)), _array(shape)))
               for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        columns.insert(draw(st.integers(0, len(columns))), np.zeros((shape[0], 0)))
    return columns


@seed(45)
@given(columns=_shaped_tables(), budget=st.integers(1, 64))
@settings(deadline=None, max_examples=300)
def test_arrays_of_any_shape_write_their_entries_in_c_order(columns, budget):
    # an N-d array column is its reshape(-1), in blocks cut inside its rows; `_shortest`
    # prints a broadcast column's source once when it holds at most `budget` values, and
    # each block's entries when it holds more; a zero-width array next to a non-empty
    # column fails as unequal columns do
    header = [f"c{i}" for i in range(len(columns))]
    flat = [c.reshape(-1) if isinstance(c, np.ndarray) else c for c in columns]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(adkyle.cli, "CSV_BLOCK_CELLS", budget)
        ref, out = Path(tmp) / "ref.csv", Path(tmp) / "out.csv"
        _per_cell_csv(ref, header, flat)
        for threshold in (adkyle.cli.SHORTEST_MIN_VALUES, 0):
            patch.setattr(adkyle.cli, "SHORTEST_MIN_VALUES", threshold)
            if len(set(map(len, flat))) > 1:
                with pytest.raises(ValueError):
                    _write_tables(Path(tmp), {"out.csv": (header, columns)})
            else:
                _write_tables(Path(tmp), {"out.csv": (header, columns)})
                assert out.read_bytes() == ref.read_bytes()


# (columns, CSV_BLOCK_CELLS or None for the default, rows per block)
BLOCK_SHAPES = [(3, None, 5461), (513, None, 31), (1, 12, 12), (4, 12, 3), (7, 12, 1), (40, 12, 1)]


@pytest.mark.parametrize(("k", "budget", "rows"), BLOCK_SHAPES)
def test_blocks_hold_at_most_the_cell_budget_or_one_row(k, budget, rows, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(adkyle.cli, "CSV_BLOCK_CELLS", budget)
    cap = max(k, adkyle.cli.CSV_BLOCK_CELLS)
    table = np.arange((2 * rows + 1) * k).reshape(-1, k)
    cuts = adkyle.cli._cuts(columns := list(table.T))
    blocks = [[column[start:start + cuts.step] for column in columns] for start in cuts]
    assert [len(block[0]) for block in blocks] == [rows, rows, 1]
    assert all(len(block) * len(block[0]) <= cap for block in blocks)
    assert np.array_equal(np.concatenate([np.stack(block, axis=1) for block in blocks]), table)


def test_simulate_csvs_match_per_cell_rendering(cfg_file, tmp_path, monkeypatch):
    # the arrays simulate writes, materialized here and rendered cell by cell: 3 paths fit
    # in one block, while 40 paths in 96-cell blocks are cut inside paths; by the repr
    # path, and at threshold 0 by `_shortest`
    cfg = load_config(cfg_file)
    grid, noise, family, _, _, w_star = _solved(cfg)
    s = 1
    for threshold, n_paths in itertools.product((adkyle.cli.SHORTEST_MIN_VALUES, 0), (3, 40)):
        out = tmp_path / f"sim_{n_paths}_{threshold}"
        ref = tmp_path / f"ref_{n_paths}_{threshold}"
        monkeypatch.undo()  # the default block size for 3 paths
        monkeypatch.setattr(adkyle.cli, "SHORTEST_MIN_VALUES", threshold)
        if n_paths == 40:
            _small_blocks(monkeypatch)
        assert main(["simulate", "-c", str(cfg_file), "-o", str(out),
                     "--paths", str(n_paths), "--signal", str(s)]) == 0
        increments = simulate_increments(w_star[s], noise, grid, cfg.seed, n_paths)
        y = np.concatenate([np.zeros((n_paths, 1)), np.cumsum(increments, axis=1)], axis=1)
        log_lik = log_likelihoods(w_star, increments, noise, grid)
        pi = posterior_weights(log_lik)
        price = price_schedule(pi, family)
        path_id, x = np.repeat(np.arange(n_paths), grid.n), np.tile(grid.nodes, n_paths)
        expected = {
            "paths.csv": (["path_id", "x", "y"], [path_id, x, y.ravel()]),
            "pathwise_prices.csv": (["path_id", "x", "price"], [path_id, x, price.ravel()]),
            "pathwise_posterior.csv": (
                ["path_id", "signal", "log_lik", "pi"],
                [np.repeat(np.arange(n_paths), family.I), family.labels * n_paths,
                 log_lik.ravel(), pi.ravel()]),
        }
        ref.mkdir()
        for name, (header, columns) in expected.items():
            _per_cell_csv(ref / name, header, columns)
            assert (out / name).read_bytes() == (ref / name).read_bytes(), (name, n_paths)
        assert (out / "paths.csv").read_bytes().count(b"\r\n") == 1 + n_paths * grid.n


@pytest.mark.parametrize("n", [81, 101])
def test_simulate_prints_path_ids_and_grid_nodes_once_per_table(n, cfg_file, tmp_path,
                                                               monkeypatch):
    # `_shortest` prints paths.csv and pathwise_prices.csv, each in 32-row blocks (96 cells):
    # every block prints its y (or price) entries, while the 40 path ids, and the grid nodes
    # when they fit in a block's 96 cells, print once per table; 101 nodes print the entries
    # each block spans, with its y; and np.unique never runs while `_shortest` prints
    import adkyle._shortest as shortest

    cfg_file.write_text(FAST_CONFIG.replace("grid.n = 101", f"grid.n = {n}"))
    _small_blocks(monkeypatch)
    monkeypatch.setattr(adkyle.cli, "SHORTEST_MIN_VALUES", 0)
    printed, uniques, printing = [], [], [False]
    cells, table, unique = shortest.cells, shortest.table, np.unique

    def counted_cells(values):
        printed.append(values.copy())
        return cells(values)

    def traced_table(*args):
        printing[0] = True
        yield from table(*args)
        printing[0] = False

    def counted_unique(*args, **kwargs):
        uniques.append(printing[0])
        return unique(*args, **kwargs)

    monkeypatch.setattr(shortest, "cells", counted_cells)
    monkeypatch.setattr(shortest, "table", traced_table)
    monkeypatch.setattr(np, "unique", counted_unique)
    assert main([*SIMULATE_40, "-c", str(cfg_file), "-o", str(tmp_path)]) == 0
    nodes = config_model(load_config(cfg_file))[0].nodes
    once = n <= 96
    blocks = -(-40 * n // 32)
    assert [len(v) for v in printed if v.dtype.kind == "i"] == [40, 40]
    assert all(np.array_equal(v, np.arange(40)) for v in printed if v.dtype.kind == "i")
    assert sum(np.array_equal(v, nodes) for v in printed) == 2 * once
    assert len(printed) == 2 * (1 + once + blocks)  # one call a block: x joins y's when due
    assert sum(map(len, printed)) == 2 * (40 + (n if once else 40 * n) + 40 * n)
    assert uniques and not any(uniques)  # pathwise_posterior.csv's blocks take the repr path


def test_simulate_rejects_zero_paths(cfg_file, tmp_path, capsys):
    # --paths is a count like the config's: [1, 2**40], checked before any array is sized
    for paths in (0, 2**40 + 1, 10**20):
        code = main(["simulate", "-c", str(cfg_file), "-o", str(tmp_path / "sim"),
                     "--paths", str(paths)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: adkyle.cli: --paths must be in [1, 2**40], got {paths}\n"


def test_simulate_holds_two_path_arrays(tmp_path):
    # y and price hold every path; path_id and x are broadcast, and each CSV block copies
    # only the rows it spans
    wide = tmp_path / "wide.cfg"
    wide.write_text(FAST_CONFIG.replace("grid.n = 101", "grid.n = 401"))
    argv = ["simulate", "-c", str(wide), "--signal", "1"]
    assert main([*argv, "--paths", "1", "-o", str(tmp_path / "warm")]) == 0  # imports, caches
    n_paths = 2000
    tracemalloc.start()
    try:
        assert main([*argv, "--paths", str(n_paths), "-o", str(tmp_path / "sim")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * n_paths * 401 * 8


def test_family_narrower_than_the_grid_step_exits_with_code_two(cfg_file, tmp_path, capsys):
    # grid.n = 401 on [-8, 8] is a step of 0.04, and the means +-1 are nodes: a
    # family at sd = 1e-3 would solve, but its kernel would measure the grid
    cfg_file.write_text(FAST_CONFIG.replace("grid.n = 101", "grid.n = 401") + "family.sd = 1e-3\n")
    assert main(["solve", "-c", str(cfg_file), "-o", str(tmp_path / "narrow")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: adkyle.model:") and len(err.splitlines()) == 1
    # a family exactly one step wide still solves
    cfg_file.write_text(FAST_CONFIG + f"family.sd = {16.0 / 100!r}\n")
    assert main(["solve", "-c", str(cfg_file), "-o", str(tmp_path / "step")]) == 0
    assert (tmp_path / "step" / "equilibrium.csv").exists()


NON_EXCHANGEABLE_CONFIG = """
grid.n = 201
mc.seed = 3
family.kind = gaussian_variance
family.sds = 0.5, 1.0, 2.0
"""


def test_non_exchangeable_family_exits_with_code_two(tmp_path, capsys):
    # three variance rows: QKQ is not cQ, so no scalar fixed point gives their
    # demand; every command that needs one fails before writing, kernel dump does not
    cfg = tmp_path / "variance.cfg"
    cfg.write_text(NON_EXCHANGEABLE_CONFIG)
    for command in ("solve", "simulate", "impact", "options", "verify-foc"):
        out = tmp_path / command
        assert main([command, "-c", str(cfg), "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: adkyle.equilibrium: kernel is not exchangeable")
        assert len(captured.err.splitlines()) == 1
        assert list(out.glob("*.csv")) == []
    out = tmp_path / "dump"
    assert main(["kernel", "dump", "-c", str(cfg), "-o", str(out)]) == 0
    assert ["exchangeable", "0", "0", "0"] in read_rows(out / "kernel.csv")


# (config, exchangeable): relative gaps max|QKQ - cQ| / c of 0.61 and 5.6e-8
SCALE_FREE_CONFIGS = (
    ("family.kind = gaussian_variance\nfamily.sds = 1, 1.5, 2\n", False),
    ("grid.x_min = -10\ngrid.x_max = 10\ngrid.n = 501\n"
     "family.means = -4.2, -1.4, 1.4, 4.2\nfamily.sd = 0.35\n", True),
)


def test_exchangeability_verdict_does_not_depend_on_the_noise_level(tmp_path, capsys):
    # c scales with sigma^2, so an absolute tolerance on QKQ - cQ would pass any family
    # at high noise and fail any at low noise; the test is relative to c
    cfg = tmp_path / "run.cfg"
    for text, exchangeable in SCALE_FREE_CONFIGS:
        for level in ("1e-7", "1", "1e3"):
            cfg.write_text(f"mc.seed = 3\nnoise.level = {level}\n{text}")
            out = tmp_path / f"{exchangeable}_{level}"
            assert main(["kernel", "dump", "-c", str(cfg), "-o", str(out)]) == 0
            assert ["exchangeable", "0", "0", str(int(exchangeable))] in read_rows(
                out / "kernel.csv")
            capsys.readouterr()
            assert main(["solve", "-c", str(cfg), "-o", str(out)]) == (0 if exchangeable else 2)
            err = capsys.readouterr().err
            assert (err == "") if exchangeable else err.startswith(
                "error: adkyle.equilibrium: kernel is not exchangeable")


def test_solve_is_invariant_to_noise_doubling(cfg_file, tmp_path):
    # the root depends on I alone; doubling the noise quadruples c, halves
    # alpha_raw = alpha_star / sqrt(c) and doubles the demand, all exactly
    runs = []
    for level in (1, 2):
        cfg_file.write_text(FAST_CONFIG.replace("grid.n = 101", "grid.n = 201")
                            + f"noise.level = {level}\n")
        out = tmp_path / f"noise_{level}"
        assert main(["solve", "-c", str(cfg_file), "-o", str(out)]) == 0
        runs.append((dict(read_rows(out / "equilibrium.csv")[1:]),
                     (out / "solver_trace.csv").read_bytes(),
                     np.loadtxt(out / "demand_surface.csv", delimiter=",", skiprows=1)))
    (base, base_trace, base_demand), (scaled, scaled_trace, scaled_demand) = runs
    assert float(scaled.pop("alpha_raw")) == 0.5 * float(base.pop("alpha_raw"))
    assert float(scaled.pop("c")) == 4.0 * float(base.pop("c"))
    assert scaled == base  # alpha_star, phi_residual, alpha_std_err, bracket_hi, n_*
    assert scaled_trace == base_trace
    assert np.array_equal(scaled_demand[:, 0], base_demand[:, 0])
    assert np.array_equal(scaled_demand[:, 1:], 2.0 * base_demand[:, 1:])


def test_main_builds_no_parser(cfg_file, tmp_path, monkeypatch):
    # the command tree is built once, at import; main only parses
    def no_parser(*args, **kwargs):
        raise AssertionError("main built an argument parser")

    monkeypatch.setattr(argparse, "ArgumentParser", no_parser)
    assert main(["solve", "-c", str(cfg_file), "-o", str(tmp_path / "out")]) == 0


def test_one_parser_serves_many_calls(cfg_file, tmp_path, capsys):
    # a parse leaves nothing behind: neither a failed parse nor an earlier --signal
    out = str(tmp_path / "out")
    assert main(["simulate", "--signal", "1", "--paths", "2", "-c", str(cfg_file), "-o", out]) == 0
    with pytest.raises(SystemExit):
        main(["options", "-o", out])
    assert main(["options", "-c", str(cfg_file), "-o", out]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("options: signal s1 ")


def test_config_errors_exit_with_code_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("grid.n = 101\n")  # no seed
    assert main(["solve", "-c", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "mc.seed" in err


def test_repeated_config_key_exits_with_code_two(tmp_path, capsys):
    # a later line must not silently override an earlier one
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("mc.seed = 1\ngrid.n = 101\nmc.seed = 2\n")
    assert main(["solve", "-c", str(cfg), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: adkyle.config:") and len(err.splitlines()) == 1
    assert "'mc.seed' repeated (lines 1 and 3)" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--seed", "-1"],
    ["impact", "--seed", "-1"],
    ["solve", "--seed", str(2**64 + 1)],
    ["posterior", "probe", "--alpha-bar", "1e200"],
    # alpha^2 rounds by more than the quadrature window (NaN moments, exit 0, from ~1.44e17)
    ["posterior", "probe", "--alpha-bar", "1e17"],
])
def test_bad_flag_values_exit_with_code_two(cfg_file, tmp_path, capsys, argv):
    assert main(argv + ["-c", str(cfg_file), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: adkyle.")
    assert "Traceback" not in err


def test_out_of_memory_exits_with_code_two(cfg_file, tmp_path, capsys, monkeypatch):
    import adkyle.cli

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(adkyle.cli, "build_canonical_kernel", exhausted)
    assert main(["kernel", "dump", "-c", str(cfg_file), "-o", str(tmp_path / "k")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: adkyle.cli: out of memory") and len(err.splitlines()) == 1
    assert "n_samples" not in err and "n_paths" not in err  # the keys size no allocation


def _run_python(argv, env=None, **kwargs):
    """A fresh interpreter with this checkout's adkyle on the path and one BLAS thread; the
    variables in env, if any, override these."""
    env = dict(os.environ, PYTHONPATH=str(Path(adkyle.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1") | (env or {})
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          **kwargs)


def _limit_address_space():
    """preexec_fn of a subprocess: a 1 GiB address-space cap, local to that process."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_cli_import_leaves_scipy_unloaded(cfg_file, tmp_path):
    # the package needs no scipy (the skew-normal Phi is math.erfc's), and no start-up path
    # needs numpy.polynomial; no subcommand below loads scipy, on a mean-shift run or a
    # skew-normal one, nor OpenSSL's _hashlib (the manifest's config hash is zlib's).  A
    # call loads only what its subcommand runs: the package import loads no submodule, the
    # set-up (cli and the config) only the modules of every subcommand, and each subcommand
    # none of these
    setup = {"adkyle", "adkyle.cli", "adkyle.config", "adkyle.kernel", "adkyle.model"}
    unloaded = {
        ("solve",): ("adkyle.objective", "adkyle.options", "adkyle.orderflow", "adkyle._rng",
                     "numpy.random", "numpy.ma", "adkyle._shortest"),
        ("impact",): ("numpy.ma", "numpy.random", "adkyle.orderflow", "adkyle.options",
                      "adkyle._shortest"),
        ("kernel", "dump"): ("adkyle.equilibrium", "adkyle.analytics", "adkyle._shortest"),
        ("posterior", "probe", "--alpha-bar", "1.0"): ("adkyle.equilibrium", "adkyle.analytics",
                                                       "adkyle._shortest"),
    }
    skew = tmp_path / "skew.cfg"
    skew.write_text(FAST_CONFIG + "family.kind = skew_normal\nfamily.shapes = 4, -4\n")
    cases = [(cfg_file, argv, absent) for argv, absent in unloaded.items()]
    cases += [(skew, argv, unloaded[argv]) for argv in [("solve",), ("kernel", "dump")]]
    for cfg, argv, absent in cases:
        script = "\n".join([
            "import sys, adkyle",
            "loaded = [m for m in sys.modules if m.startswith('adkyle.')]",
            "import adkyle.cli",
            "from adkyle.config import load_config",
            f"load_config({str(cfg)!r})",
            f"loaded += sorted({{m for m in sys.modules if m.startswith('adkyle')}} ^ {setup!r})",
            "loaded += [m for m in ('scipy', 'numpy.polynomial') if m in sys.modules]",
            f"assert adkyle.cli.main({[*argv, '-c', str(cfg), '-o', str(tmp_path)]!r}) == 0",
            f"loaded += [m for m in ('scipy', '_hashlib', *{absent!r}) if m in sys.modules]",
            "sys.exit(' '.join(loaded) or None)",
        ])
        proc = _run_python(["-c", script])
        assert proc.returncode == 0, (cfg.name, argv, proc.stderr)
    # the posterior is a leaf: it imports no other adkyle module
    script = ("import sys, adkyle.posterior; sys.exit(' '.join(m for m in "
              "('adkyle.kernel', 'adkyle.model') if m in sys.modules) or None)")
    proc = _run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr


def test_csv_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits a product across threads above a size threshold, and the split changes
    # the order of its sums.  Without cli's one-thread pin, a seed-7 run of 700 paths wrote
    # other pathwise_prices.csv and pathwise_posterior.csv bytes under 2 threads than
    # under 1 (seen on a 2-CPU host; on one CPU the two runs cannot differ).  The pin
    # overrides the caller's own setting
    cfg = tmp_path / "seed7.cfg"
    cfg.write_text(FAST_CONFIG.replace("grid.n = 101", "grid.n = 401")
                   .replace("mc.seed = 3", "mc.seed = 7"))
    files = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = _run_python(["-m", "adkyle.cli", "simulate", "--paths", "700", "-c", str(cfg),
                            "-o", str(out)],
                           env=dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS"), threads))
        assert (proc.returncode, proc.stderr) == (0, "")
        files.append({p.name: p.read_bytes() for p in out.glob("*.csv")
                      if p.name != "manifest.csv"})
    assert sorted(files[0]) == ["paths.csv", "pathwise_posterior.csv", "pathwise_prices.csv"]
    assert [name for name in files[0] if files[0][name] != files[1].get(name)] == []


def test_cli_import_and_config_load_leave_the_pool_modules_unloaded(cfg_file, tmp_path):
    # every run pays this set-up, and one process writes every CSV: multiprocessing and
    # concurrent.futures (10-14 ms of import) load neither at import nor in a large write
    wide = tmp_path / "wide.cfg"
    wide.write_text(FAST_CONFIG.replace("grid.n = 101", "grid.n = 401"))
    out = tmp_path / "sim"
    loaded = "loaded = [m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules]"
    for lines in (
        [f"load_config({str(cfg_file)!r})"],
        [f"assert adkyle.cli.main(['simulate', '--paths', '200', '-c', {str(wide)!r}, "
         f"'-o', {str(out)!r}]) == 0"],
    ):
        script = "\n".join(["import os, sys, adkyle.cli", "from adkyle.config import load_config",
                            *lines, loaded, "sys.exit(' '.join(loaded) or None)"])
        proc = _run_python(["-c", script])
        assert proc.returncode == 0, proc.stderr
    assert (out / "paths.csv").exists()


def test_every_exported_name_resolves():
    assert [name for name in adkyle.__all__ if not hasattr(adkyle, name)] == []


def test_public_names_load_on_first_access():
    # in a fresh interpreter, where the package has loaded none of its modules yet
    script = "\n".join([
        "import adkyle",
        "missing = sorted(set(adkyle.__all__) - set(dir(adkyle)))",
        "for name in adkyle.__all__:",
        "    exec(f'from adkyle import {name}')",
        "try:",
        "    adkyle.no_such_name",
        "    missing.append('no AttributeError')",
        "except AttributeError:",
        "    pass",
        "raise SystemExit(' '.join(missing) or None)",
    ])
    proc = _run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr


def test_unaffordable_path_count_fails_up_front(cfg_file, tmp_path):
    # 2**40 paths need terabytes: simulate's first allocation fails, before any
    # block is drawn, under a process-local address-space cap
    t0 = time.perf_counter()
    proc = _run_python(["-m", "adkyle.cli", "simulate", "--paths", str(2**40), "-c",
                        str(cfg_file), "-o", str(tmp_path / "out")],
                       preexec_fn=_limit_address_space, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: adkyle.cli: out of memory")
    assert len(proc.stderr.splitlines()) == 1
    assert time.perf_counter() - t0 < 30.0


@pytest.mark.parametrize("argv", SUBCOMMANDS,
                         ids=lambda argv: "-".join(w for w in argv[:2] if w[0] != "-"))
def test_every_subcommand_runs_at_20001_nodes_in_one_gib(argv, tmp_path):
    # no subcommand may cost grid.n^2: an (n, n) float64 matrix here is 3.2 GB
    cfg = tmp_path / "big.cfg"
    cfg.write_text(FAST_CONFIG.replace("grid.n = 101", "grid.n = 20001"))
    proc = _run_python(["-m", "adkyle.cli", *argv, "-c", str(cfg), "-o", str(tmp_path / "out")],
                       preexec_fn=_limit_address_space, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_impact_sub_grid_past_the_window_takes_every_node(tmp_path):
    # from n_sub = the window's node count on, every node is taken, so a larger n_sub asks
    # np.linspace for no more points: even 2**40 runs under a 1 GiB address-space cap
    def run(n_sub):
        cfg = tmp_path / f"sub{n_sub}.cfg"
        cfg.write_text(FAST_CONFIG.replace("impact.n_sub = 9", f"impact.n_sub = {n_sub}"))
        out = tmp_path / f"out{n_sub}"
        proc = _run_python(["-m", "adkyle.cli", "impact", "-c", str(cfg), "-o", str(out)],
                           preexec_fn=_limit_address_space, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        return (out / "impact_kernel.csv").read_bytes()

    grid = config_model(parse_config_text(FAST_CONFIG))[0]
    reference = run(grid.n)  # the window lies inside the grid, so this takes every node
    rows = read_rows(tmp_path / f"out{grid.n}" / "impact_kernel.csv")[1:]
    points = np.unique([float(r[0]) for r in rows])
    idx = np.searchsorted(grid.nodes, points)
    assert np.array_equal(grid.nodes[idx], points) and np.all(np.diff(idx) == 1)
    assert len(points) < grid.n
    for n_sub in (len(points), len(points) + 1, 2**40):
        assert run(n_sub) == reference


def test_impact_window_clipped_by_both_edges_stops_one_node_inside(tmp_path):
    # mu -+ 3 sd lies past both grid ends, so the sub-grid runs from the second node
    # to the second-to-last, the nodes nearest the ends at which the kernel is defined
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(FAST_CONFIG + "family.means = -7.9, 7.9\nfamily.sd = 0.2\n")
    assert main(["impact", "-c", str(cfg), "-o", str(tmp_path / "out")]) == 0
    grid = config_model(load_config(cfg))[0]
    xs = np.unique([float(r[0]) for r in read_rows(tmp_path / "out" / "impact_kernel.csv")[1:]])
    assert (xs[0], xs[-1], len(xs)) == (grid.nodes[1], grid.nodes[-2], 9)


def test_missing_config_file_exits_with_code_two(tmp_path, capsys):
    assert main(["solve", "-c", str(tmp_path / "nope.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


def test_kernel_dump_and_posterior_probe(cfg_file, tmp_path):
    out = tmp_path / "k"
    assert main(["kernel", "dump", "-c", str(cfg_file), "-o", str(out)]) == 0
    kern_rows = read_rows(out / "kernel.csv")
    assert kern_rows[0] == ["matrix", "row", "col", "value"]
    names = {r[0] for r in kern_rows[1:]}
    assert names == {"K", "Q", "c", "exchangeable", "rank_tol"}
    assert kern_rows[-1] == ["rank_tol", "0", "0", "1e-10"]

    out2 = tmp_path / "p"
    assert (
        main(
            [
                "posterior",
                "probe",
                "-c",
                str(cfg_file),
                "-o",
                str(out2),
                "--alpha-bar",
                "1.0",
            ]
        )
        == 0
    )
    probe = {(r[0], r[1]): r[2] for r in read_rows(out2 / "posterior_probe.csv")[1:]}
    assert abs(float(probe[("m1", "0")]) - 0.675) < 0.01


def test_options_subcommand_writes_strip_and_signatures(cfg_file, tmp_path):
    out = tmp_path / "opt"
    assert main(["options", "-c", str(cfg_file), "-o", str(out)]) == 0
    strip = read_rows(out / "strip.csv")
    components = {r[0] for r in strip[1:]}
    assert {"bond", "underlying", "k0"} <= components
    sigs = read_rows(out / "signatures.csv")
    labels = {r[1] for r in sigs[1:]}
    assert labels == {"bearish", "bullish"}


def test_failing_verify_foc_still_writes_its_report_and_manifest(cfg_file, tmp_path, capsys,
                                                                 monkeypatch):
    real = adkyle.objective.foc_terms

    def payoff_row_off(*args, **kwargs):
        reports = real(*args, **kwargs)
        return [dataclasses.replace(r, diff=r.diff + (i == 1)) for i, r in enumerate(reports)]

    monkeypatch.setattr(adkyle.objective, "foc_terms", payoff_row_off)
    out = tmp_path / "foc"
    assert main(["verify-foc", "-c", str(cfg_file), "-o", str(out)]) == 1
    assert [r[-1] for r in read_rows(out / "foc_report.csv")[1:]] == ["pass", "fail", "pass"]
    assert (out / "manifest.csv").exists()
    lines = capsys.readouterr().out.splitlines()
    assert [line.endswith("(FAIL)") for line in lines] == [False, True, False]


def test_verify_foc_passes_at_equilibrium(cfg_file, tmp_path):
    out = tmp_path / "foc"
    assert main(["verify-foc", "-c", str(cfg_file), "-o", str(out)]) == 0
    rows = read_rows(out / "foc_report.csv")
    status_col = rows[0].index("status")
    assert all(r[status_col] == "pass" for r in rows[1:])
