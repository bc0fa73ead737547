"""Command-line pipeline: outputs, overrides, and failure modes."""

import argparse
import concurrent.futures.process
import csv
import dataclasses
import math
import multiprocessing
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import adkyle
import adkyle.cli
from adkyle import true_belief_moments
from adkyle.cli import OUTPUT_DIR_ENV, _solved, main, write_csv
from adkyle.config import config_grid, load_config, parse_config_text, with_seed
from adkyle._rng import PATH_SHOCKS, derive_seed, standard_normal_matrix
from adkyle.orderflow import (
    PATH_BLOCK_SIZE,
    log_likelihoods,
    posterior_weights,
    price_schedule,
    simulate_increments,
)
from adkyle.posterior import QUAD_TOL
from conftest import count_block_generators

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
    # the handler's and the writer's times follow the wall time; small tables are written serially
    keys = [row[0] for row in read_rows(out / "manifest.csv")[1:]]
    assert keys[keys.index("wall_time_s"):][:4] == ["wall_time_s", "compute_s", "write_s",
                                                    "write_workers"]
    assert min(float(manifest["compute_s"]), float(manifest["write_s"])) >= 0.0
    assert manifest["write_workers"] == "0"
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
    grid = config_grid(parse_config_text(text))
    real = adkyle.cli.equilibrium_demand

    def demand(eq, kern, family, noise):
        if wrong == "scaled_1.01":
            return 1.01 * real(eq, kern, family, noise)
        # a demand without the sigma^2 factor: alpha* (L^+ Q)^T eta, L the root of
        # int eta eta^T / sigma^2, so W / sigma^2 leaves the payoff span under sloped noise
        lam, u = np.linalg.eigh((family.eta * (grid.quad_weights / np.square(noise.sigma)))
                                @ family.eta.T)
        inv_root = np.where(lam > 1e-12 * lam.max(), 1.0 / np.sqrt(np.abs(lam)), 0.0)
        return eq.alpha_star * ((u * inv_root) @ u.T @ kern.Q).T @ family.eta

    monkeypatch.setattr(adkyle.cli, "equilibrium_demand", demand)
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


def test_csv_writer_matches_per_cell_reference(tmp_path):
    floats = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 0.1, -2.5])
    columns = [
        floats,
        floats.astype(np.float32),
        np.array([-3, 0, 1, 2**62, 4, 5, 6, 7], dtype=np.int64),
        [0, 1, -2, 2**70, 4, 5, 6, 7],
        ["s1", "a,b", 'q"x', "", " sp", "line\nbreak", "s7", "s8"],
        [1.5, 2, "lbl", np.float64(0.1), np.float32(0.1), np.int64(3), -0.0, float("nan")],
    ]
    header = ["f64", "f32", "i64", "int", "label", "mixed"]

    def cell(v):
        return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)

    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([cell(v) for v in row])
    out = tmp_path / "out.csv"
    write_csv(out, header, columns)
    assert out.read_bytes() == ref.read_bytes()
    assert b"nan,nan,-3,0,s1,1.5\r\n" in out.read_bytes()


def test_csv_writer_writes_block_by_block(tmp_path, monkeypatch):
    # three-row blocks: ten rows make three full blocks and a partial one, formatted
    # here one at a time and by two forked workers
    monkeypatch.setattr(adkyle.cli, "CSV_BLOCK_ROWS", 3)
    x = np.tile(np.array([0.0, -0.0, 0.1]), 4)[:10]
    tables = {
        "numeric": (["i", "x", "y"], [np.arange(10), x, np.linspace(-1.0, 1.0, 10)]),
        "mixed": (["label", "x", "n"], [[f"s,{i}" for i in range(10)], x, list(range(10))]),
    }
    for name, (header, columns) in tables.items():
        _per_cell_csv(tmp_path / f"{name}_ref.csv", header, columns)
    fork = multiprocessing.get_context("fork")
    with concurrent.futures.process.ProcessPoolExecutor(2, mp_context=fork) as pool:
        for i, map_blocks in enumerate((map, pool.map)):
            out = tmp_path / str(i)
            out.mkdir()
            # both tables in one call: a pool has every block queued before the first write
            adkyle.cli._write_csvs({out / f"{name}.csv": table for name, table in tables.items()},
                                   map_blocks)
            for name in tables:
                assert (out / f"{name}.csv").read_bytes() == (
                    tmp_path / f"{name}_ref.csv").read_bytes()
            for bad in ([np.arange(10), np.arange(7)], [np.arange(10), list(range(7))]):
                with pytest.raises(ValueError):  # unequal columns still fail, in whichever block
                    adkyle.cli._write_csvs({out / "bad.csv": (["a", "b"], bad)}, map_blocks)
    assert multiprocessing.active_children() == []


def _pool_constructions(monkeypatch) -> list:
    """Record the arguments of each process pool built."""
    built = []

    class Counted(concurrent.futures.process.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", Counted)
    return built


def _small_pool_threshold(monkeypatch, cpus: int) -> None:
    """Let `simulate --paths 40` reach the pool on `cpus` CPUs.

    32-row blocks put pathwise_posterior.csv's 80 rows in three blocks, and the
    8,160 rows of the three tables pass a 1,000-row threshold.
    """
    monkeypatch.setattr(adkyle.cli, "CSV_BLOCK_ROWS", 32)
    monkeypatch.setattr(adkyle.cli, "PARALLEL_MIN_ROWS", 1000)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


SIMULATE_40 = ["simulate", "--paths", "40", "--signal", "1"]


def test_forked_csv_workers_write_the_serial_bytes(cfg_file, tmp_path, monkeypatch):
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert main([*SIMULATE_40, "-c", str(cfg_file), "-o", str(serial)]) == 0
    built = _pool_constructions(monkeypatch)
    _small_pool_threshold(monkeypatch, cpus=2)
    assert main([*SIMULATE_40, "-c", str(cfg_file), "-o", str(pooled)]) == 0
    assert multiprocessing.active_children() == []
    assert len(built) == 1
    assert dict(read_rows(pooled / "manifest.csv")[1:])["write_workers"] == "2"
    names = sorted(path.name for path in serial.glob("*.csv") if path.name != "manifest.csv")
    assert names == ["paths.csv", "pathwise_posterior.csv", "pathwise_prices.csv"]
    for name in names:
        assert (pooled / name).read_bytes() == (serial / name).read_bytes(), name


def test_small_tables_and_one_cpu_build_no_pool(cfg_file, tmp_path, monkeypatch):
    commands = [["solve"], ["impact"], ["verify-foc"], ["simulate", "--paths", "3"]]
    built, outs = _pool_constructions(monkeypatch), tmp_path / "out"
    for i, argv in enumerate(commands):
        assert main([*argv, "-c", str(cfg_file), "-o", str(outs / str(i))]) == 0
    _small_pool_threshold(monkeypatch, cpus=1)
    assert main([*SIMULATE_40, "-c", str(cfg_file), "-o", str(outs / "one_cpu")]) == 0
    assert built == []
    for out in outs.iterdir():
        assert dict(read_rows(out / "manifest.csv")[1:])["write_workers"] == "0"
    assert multiprocessing.active_children() == []


_BLOCK_TEXT = adkyle.cli._block_text


def _unequal_columns(block):
    return _BLOCK_TEXT([*block[:-1], block[-1][1:]])


def _worker_dies(block):
    os._exit(1)


@pytest.mark.parametrize("fault", [_unequal_columns, _worker_dies])
def test_a_failing_csv_worker_ends_with_one_error_line(fault, cfg_file, tmp_path, monkeypatch,
                                                       capsys):
    # fork carries the patched _block_text into the workers
    built = _pool_constructions(monkeypatch)
    _small_pool_threshold(monkeypatch, cpus=2)
    monkeypatch.setattr(adkyle.cli, "_block_text", fault)
    assert main([*SIMULATE_40, "-c", str(cfg_file), "-o", str(tmp_path / "sim")]) == 2
    assert len(built) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert multiprocessing.active_children() == []


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
    "i8": (st.integers(-2**63, 2**63 - 1), np.int64),
}
TEXT = st.text(alphabet=',"\n\r a', max_size=4)  # quote-worthy characters and ""


@st.composite
def _column(draw, n):
    kind = draw(st.sampled_from([*NUMERIC_KINDS, "U", "O", "list"]))
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
    # repeated cells, every float class, strided and empty columns, cells csv must quote
    header = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        ref, out = Path(tmp) / "ref.csv", Path(tmp) / "out.csv"
        _per_cell_csv(ref, header, columns)
        write_csv(out, header, columns)
        assert out.read_bytes() == ref.read_bytes()


def test_simulate_csvs_match_per_cell_rendering(cfg_file, tmp_path):
    # the arrays simulate writes, rebuilt here and rendered cell by cell
    out = tmp_path / "sim"
    n_paths, s = 3, 1
    assert main(["simulate", "-c", str(cfg_file), "-o", str(out),
                 "--paths", str(n_paths), "--signal", str(s)]) == 0
    cfg = load_config(cfg_file)
    grid, noise, family, _, _, w_star = _solved(cfg)
    increments, _ = simulate_increments(w_star[s], noise, grid, cfg.seed, n_paths)
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
    for name, (header, columns) in expected.items():
        _per_cell_csv(tmp_path / name, header, columns)
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name
    assert (out / "paths.csv").read_bytes().count(b"\r\n") == 1 + n_paths * grid.n


def test_simulate_rejects_zero_paths(cfg_file, tmp_path, capsys):
    code = main(["simulate", "-c", str(cfg_file), "-o", str(tmp_path / "sim"), "--paths", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "--paths" in err
    assert "Traceback" not in err


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


def _run_python(argv, **kwargs):
    """A fresh interpreter with this checkout's adkyle on the path and one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(Path(adkyle.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          **kwargs)


def test_cli_import_leaves_scipy_unloaded(cfg_file, tmp_path):
    # scipy serves only the skew-normal family, and no start-up path needs
    # numpy.polynomial; neither the solve nor the probe of a mean-shift run loads scipy
    runs = [["solve"], ["posterior", "probe", "--alpha-bar", "1.0"]]
    script = "\n".join([
        "import sys, adkyle.cli",
        "loaded = [m for m in ('scipy', 'numpy.polynomial') if m in sys.modules]",
        *(f"assert adkyle.cli.main({argv + ['-c', str(cfg_file), '-o', str(tmp_path)]!r}) == 0"
          for argv in runs),
        "loaded += ['scipy'] * ('scipy' in sys.modules)",
        "sys.exit(' '.join(loaded) or None)",
    ])
    proc = _run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr


def test_cli_import_and_config_load_leave_the_pool_modules_unloaded(cfg_file):
    # every run pays this set-up; the pool's modules (10-14 ms of import) load only with a pool
    script = "\n".join([
        "import sys, adkyle.cli",
        "from adkyle.config import load_config",
        f"load_config({str(cfg_file)!r})",
        "loaded = [m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules]",
        "sys.exit(' '.join(loaded) or None)",
    ])
    proc = _run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves():
    assert [name for name in adkyle.__all__ if not hasattr(adkyle, name)] == []


def test_unaffordable_path_count_fails_up_front(cfg_file, tmp_path):
    # 2**40 paths need terabytes: simulate's first allocation fails, before any
    # block is drawn, under a process-local address-space cap
    cap = 1 << 30

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    t0 = time.perf_counter()
    proc = _run_python(["-m", "adkyle.cli", "simulate", "--paths", str(2**40), "-c",
                        str(cfg_file), "-o", str(tmp_path / "out")],
                       preexec_fn=limit_address_space, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: adkyle.cli: out of memory")
    assert len(proc.stderr.splitlines()) == 1
    assert time.perf_counter() - t0 < 30.0


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
    real = adkyle.cli.foc_terms

    def payoff_row_off(*args, **kwargs):
        reports = real(*args, **kwargs)
        return [dataclasses.replace(r, diff=r.diff + (i == 1)) for i, r in enumerate(reports)]

    monkeypatch.setattr(adkyle.cli, "foc_terms", payoff_row_off)
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
