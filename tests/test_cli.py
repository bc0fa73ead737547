"""Command-line pipeline: outputs, overrides, and failure modes."""

import csv

import numpy as np
import pytest

from adkyle.cli import OUTPUT_DIR_ENV, main, write_csv

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
    assert (out / "manifest.csv").exists()
    rows = dict(
        (r[0], r[1]) for r in read_rows(out / "equilibrium.csv")[1:]
    )
    assert 1.0 < float(rows["alpha_star"]) < 2.0
    header = read_rows(out / "demand_surface.csv")[0]
    assert header[0] == "x"
    assert len(header) == 3  # two signal columns


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


def test_outputs_are_deterministic_on_rerun(cfg_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "-c", str(cfg_file), "-o", str(out1)]) == 0
    assert main(["solve", "-c", str(cfg_file), "-o", str(out2)]) == 0
    for name in ("equilibrium.csv", "demand_surface.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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


def test_simulate_rejects_zero_paths(cfg_file, tmp_path, capsys):
    code = main(["simulate", "-c", str(cfg_file), "-o", str(tmp_path / "sim"), "--paths", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "--paths" in err
    assert "Traceback" not in err


def test_config_errors_exit_with_code_two(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("grid.n = 101\n")  # no seed
    assert main(["solve", "-c", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "mc.seed" in err


def test_missing_config_file_exits_with_code_two(tmp_path, capsys):
    assert main(["solve", "-c", str(tmp_path / "nope.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


def test_kernel_dump_and_posterior_probe(cfg_file, tmp_path):
    out = tmp_path / "k"
    assert main(["kernel", "dump", "-c", str(cfg_file), "-o", str(out)]) == 0
    kern_rows = read_rows(out / "kernel.csv")
    assert kern_rows[0] == ["matrix", "row", "col", "value"]
    names = {r[0] for r in kern_rows[1:]}
    assert {"K", "Q", "L", "c"} <= names

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


def test_verify_foc_passes_at_equilibrium(cfg_file, tmp_path):
    out = tmp_path / "foc"
    assert main(["verify-foc", "-c", str(cfg_file), "-o", str(out)]) == 0
    rows = read_rows(out / "foc_report.csv")
    status_col = rows[0].index("status")
    assert all(r[status_col] == "pass" for r in rows[1:])
