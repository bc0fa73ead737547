"""Flat key=value run configuration: parsing, validation, hashing."""

import dataclasses

import pytest

from adkyle.config import (
    config_family,
    config_grid,
    config_hash,
    config_noise,
    parse_config_text,
    with_seed,
)

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
solver.phi_tol = 2e-4
solver.width_tol = 1e-7
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
    assert cfg.phi_tol == 2e-4
    assert cfg.n_sub == 11
    assert cfg.conditioned_on == 1
    assert cfg.output_dir == "results"


def test_seed_is_mandatory():
    with pytest.raises(ValueError, match="mc.seed is required"):
        parse_config_text("grid.n = 101\n")


def test_unknown_keys_are_hard_errors():
    with pytest.raises(ValueError, match="grid.resolution"):
        parse_config_text("mc.seed = 1\ngrid.resolution = 55\n")


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
        "solver.phi_tol = 0",
        "solver.phi_tol = -1e-4",
        "solver.width_tol = 0",
        "solver.width_tol = nan",
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
    grid = config_grid(cfg)
    assert grid.n == 201
    noise = config_noise(cfg, grid)
    assert noise.sigma[0] == 1.5
    assert noise.sigma[-1] == pytest.approx(1.5 + 0.1 * 12.0, abs=1e-12)
    fam = config_family(cfg, grid)
    assert fam.family_kind == "gaussian_variance"
    assert fam.I == 2


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
