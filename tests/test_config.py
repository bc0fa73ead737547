"""Flat key=value run configuration: parsing, validation, hashing."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from adkyle import make_payoff_family
from adkyle.cli import main
from adkyle.config import KEYS, RunConfig, config_hash, config_model, parse_config_text, with_seed
from adkyle.model import FAMILY_PARAMS

MINIMAL = "mc.seed = 7\n"

FULL = """
# simulation setup
grid.x_min = -6.0
grid.x_max = 6.0
grid.n = 201
noise.level = 1.5
noise.slope = 0.1

family.kind = gaussian_variance
family.mu = 0.0
family.sds = 1.0, 2.0

mc.seed = 11
mc.n_samples = 50000
mc.n_paths = 1000
impact.n_sub = 11
impact.conditioned_on = 1
output.dir = results
"""


def test_minimal_config_uses_documented_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.seed == 7
    assert cfg.x_min == -8.0
    assert cfg.x_max == 8.0
    assert cfg.n == 401
    assert cfg.noise_level == 1.0
    assert cfg.noise_slope == 0.0
    assert cfg.family_kind == "gaussian_mean_shift"
    assert cfg.means == (-1.0, 1.0)
    assert cfg.n_samples == 200_000
    assert cfg.n_paths == 20_000
    assert cfg.output_dir == "out"
    assert cfg.conditioned_on is None


def test_full_config_round_trip():
    cfg = parse_config_text(FULL)
    assert cfg.x_min == -6.0
    assert cfg.n == 201
    assert cfg.noise_slope == 0.1
    assert cfg.family_kind == "gaussian_variance"
    assert cfg.sds == (1.0, 2.0)
    assert cfg.seed == 11
    assert cfg.n_samples == 50_000
    assert cfg.n_sub == 11
    assert cfg.conditioned_on == 1
    assert cfg.output_dir == "results"


def test_seed_is_mandatory():
    with pytest.raises(ValueError, match="mc.seed is required"):
        parse_config_text("grid.n = 101\n")


def test_unknown_keys_are_hard_errors():
    # the solver tolerances are no config keys: the root depends on I alone
    for key in ("grid.resolution", "solver.phi_tol", "solver.width_tol"):
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            parse_config_text(f"mc.seed = 1\n{key} = 1e-6\n")


@pytest.mark.parametrize("kind, line", [
    ("gaussian_variance", "family.sd = 0.5"),
    ("gaussian_variance", "family.means = -3, 3"),
    ("gaussian_mean_shift", "family.sds = 1, 2"),
    ("gaussian_mean_shift", "family.mu = 0"),
    ("skew_normal", "family.sd = 1"),
])
def test_family_keys_the_kind_does_not_read_are_hard_errors(kind, line, tmp_path, capsys):
    # another kind's parameter would be ignored, and the run would go on without it
    key = line.split(" =")[0]
    with pytest.raises(ValueError, match=f"family.kind = {kind} does not read '{key}' .line 3."):
        parse_config_text(f"mc.seed = 1\nfamily.kind = {kind}\n{line}\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mc.seed = 1\nfamily.kind = {kind}\n{line}\n")
    assert main(["solve", "-c", str(cfg), "-o", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: adkyle.config: ")
    assert len(captured.err.splitlines()) == 1
    # the default kind, gaussian_mean_shift, reads no family.sds either
    with pytest.raises(ValueError, match="does not read 'family.sds' .line 2."):
        parse_config_text("mc.seed = 1\nfamily.sds = 1, 2\n")


def test_family_keys_are_the_family_table():
    # every parameter a kind reads is a RunConfig field with its family.<name> key, and
    # every family.* key but the kind is read by some kind
    read = {name for names in FAMILY_PARAMS.values() for name in names}
    fields = {field.name: field.default for field in dataclasses.fields(RunConfig)}
    assert all(KEYS[f"family.{name}"][0] == name and name in fields for name in read)
    assert {key for key in KEYS if key.startswith("family.")} - {"family.kind"} == {
        f"family.{name}" for name in read}
    # README's family table lists exactly the table's kinds, keys and defaults
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("| `family.kind`"):].split("\n\n")[0]
    rows = re.findall(r"^\| `(\w+)`(?: \(default\))? +\| (.+?) +\|$", table, re.M)
    documented = {kind: re.findall(r"`family\.(\w+)` \(`([^`]*)`\)", keys) for kind, keys in rows}
    assert {kind: tuple(name for name, _ in keys) for kind, keys in documented.items()} == (
        FAMILY_PARAMS)
    for keys in documented.values():
        for name, default in keys:
            assert KEYS[f"family.{name}"][1](default) == fields[name]


def test_malformed_lines_report_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_config_text("mc.seed = 1\nthis is not a key value pair\n")


def test_validation_rejects_bad_values():
    bad = [
        "grid.n = 2",
        "mc.n_samples = 0",
        "mc.n_samples = 5",
        "mc.n_samples = 9999",
        "family.kind = lognormal",
        "impact.n_sub = 0",
        "impact.n_sub = 8",
        "impact.conditioned_on = 2",
        "impact.conditioned_on = 5",
        "impact.conditioned_on = -1",
        "family.kind = skew_normal\nfamily.shapes = 1, 2, 3\nimpact.conditioned_on = 3",
        "mc.seed = -1",
        "mc.seed = 18446744073709551617",
        "grid.n = 1099511627777",
        "mc.n_paths = 1099511627777",
    ]
    for lines in bad:
        with pytest.raises(ValueError, match="adkyle.config"):
            parse_config_text(f"mc.seed = 1\n{lines}\n")
    # the boundary values themselves are accepted
    cfg = parse_config_text(
        "mc.seed = 1\nmc.n_samples = 10000\nimpact.n_sub = 9\n"
        "family.kind = skew_normal\nfamily.shapes = 1, 2, 3\nimpact.conditioned_on = 2\n"
    )
    assert (cfg.n_samples, cfg.n_sub, cfg.conditioned_on) == (10_000, 9, 2)


def test_config_builds_model_objects():
    cfg = parse_config_text(FULL)
    grid, noise, fam = config_model(cfg)
    assert grid.n == 201
    assert noise.sigma[0] == 1.5
    assert noise.sigma[-1] == pytest.approx(1.5 + 0.1 * 12.0, abs=1e-12)
    expected = make_payoff_family("gaussian_variance", {"mu": 0.0, "sds": (1.0, 2.0)}, grid)
    assert np.array_equal(fam.eta, expected.eta)


def test_hash_is_stable_and_sensitive():
    a = parse_config_text(MINIMAL)
    b = parse_config_text(MINIMAL)
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 16
    c = dataclasses.replace(a, n_samples=123_456)
    assert config_hash(c) != config_hash(a)


def test_with_seed_override():
    cfg = parse_config_text(MINIMAL)
    assert with_seed(cfg, None) is cfg
    bumped = with_seed(cfg, 99)
    assert bumped.seed == 99
    assert dataclasses.replace(bumped, seed=7) == cfg
    assert with_seed(cfg, 2**64 - 1).seed == 2**64 - 1
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="adkyle.config"):
            with_seed(cfg, seed)
