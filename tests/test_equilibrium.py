"""Fixed point solve, demand assembly, and the single-asset benchmark."""

import math

import numpy as np
import pytest

from adkyle import (
    build_canonical_kernel,
    identity_kernel,
    kyle_single_asset,
    make_payoff_family,
    solve_alpha_star,
    weighted_inner_product,
)
from adkyle.equilibrium import phi, phi_from_noise
from adkyle._rng import standard_normal_matrix
from conftest import ALPHA_STAR_BINARY

# two quotients each round once, so the product can sit one ulp off 1/2
PRODUCT_ULPS = 2.0 * np.spacing(0.5)
ROOT_WINDOW = 4e-3  # ~5 sigma of the Monte Carlo root at 2e5 samples
GRAM_TOLERANCE = 1e-12


def test_kyle_benchmark_unit_inputs_are_exact():
    bench = kyle_single_asset(1.0, 1.0)
    assert bench.beta == 1.0
    assert bench.lam == 0.5


def test_kyle_benchmark_product_is_half():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        sigma_v, sigma_eps = rng.uniform(1e-3, 1e3, size=2)
        bench = kyle_single_asset(sigma_v, sigma_eps)
        assert abs(bench.beta * bench.lam - 0.5) <= PRODUCT_ULPS


def test_kyle_benchmark_rejects_nonpositive_inputs():
    with pytest.raises(ValueError, match="adkyle.equilibrium"):
        kyle_single_asset(0.0, 1.0)
    with pytest.raises(ValueError, match="adkyle.equilibrium"):
        kyle_single_asset(1.0, -2.0)


def test_phi_at_zero_is_one_minus_uniform_mass():
    # with no information the posterior is uniform, so phi(0) = 1 - 1/I exactly
    for I in (2, 4, 8):
        xi = standard_normal_matrix(0, 10_000, I)
        assert phi_from_noise(0.0, xi) == 1.0 - 1.0 / I


def test_phi_is_negative_past_the_root():
    assert phi(10.0, 2, n_samples=200_000, seed=0) < 0.0


def test_solver_convergence_metadata(solved_mean_shift):
    eq = solved_mean_shift
    assert abs(eq.phi_residual) < 1e-4
    meta = eq.mc_meta
    assert meta["n_samples"] == 200_000
    assert meta["seed"] == 0
    assert meta["n_bisections"] <= 200
    assert meta["bracket_hi"] >= eq.alpha_star


def test_solver_finds_the_binary_root(solved_mean_shift):
    assert abs(solved_mean_shift.alpha_star - ALPHA_STAR_BINARY) < ROOT_WINDOW


def test_alpha_raw_rescales_by_kernel_scale(solved_mean_shift, mean_shift_kernel):
    eq = solved_mean_shift
    assert eq.alpha_raw == eq.alpha_star / math.sqrt(mean_shift_kernel.c)
    assert eq.c == mean_shift_kernel.c


def test_root_is_kernel_independent_for_exchangeable_kernels(
    solved_mean_shift, mean_shift_kernel
):
    # the canonical fixed point depends only on (I, seed, n_samples)
    eq_id = solve_alpha_star(identity_kernel(2), n_samples=200_000, seed=0)
    assert eq_id.alpha_star == solved_mean_shift.alpha_star
    assert eq_id.alpha_raw == eq_id.alpha_star  # c = 1


def test_demand_gram_recovers_scaled_centering(
    mean_shift_demand, mean_shift_kernel, unit_noise, grid
):
    eq, beta, w_star = mean_shift_demand
    I = w_star.shape[0]
    gram = np.array(
        [
            [weighted_inner_product(w_star[i], w_star[j], unit_noise, grid) for j in range(I)]
            for i in range(I)
        ]
    )
    target = eq.alpha_star**2 * mean_shift_kernel.Q
    assert np.abs(gram - target).max() < GRAM_TOLERANCE


def test_demand_rows_sum_to_zero(mean_shift_demand):
    _, _, w_star = mean_shift_demand
    assert np.abs(w_star.sum(axis=0)).max() < 1e-13


def test_demand_shapes(mean_shift_demand, grid):
    _, beta, w_star = mean_shift_demand
    assert beta.shape == (2, 2)
    assert w_star.shape == (2, grid.n)


def test_solver_rejects_non_exchangeable_kernels(grid, unit_noise):
    rows = np.vstack(
        [
            np.exp(-0.5 * np.square(grid.nodes + 2.0)),
            np.exp(-0.5 * np.square(grid.nodes)),
            np.exp(-0.5 * np.square((grid.nodes - 2.0) / 0.4)),
        ]
    )
    fam = make_payoff_family("tabulated", {"x": grid.nodes, "eta": rows}, grid)
    kern = build_canonical_kernel(fam, unit_noise, grid)
    with pytest.raises(ValueError, match="adkyle.equilibrium"):
        solve_alpha_star(kern, n_samples=20_000, seed=0)
