"""Batched path simulation, pathwise filtering, and the two profit functionals."""

import math

import numpy as np
import pytest

from adkyle import (
    log_likelihoods,
    posterior_weights,
    price_schedule,
    sample_posterior,
    simulate_increments,
    weighted_inner_product,
)
from adkyle._rng import PATH_SHOCKS, derive_seed, standard_normal_matrix
from adkyle.orderflow import LOG_LIK_SPREAD_MAX, PATH_BLOCK_SIZE
from conftest import ALPHA_STAR_BINARY

POSTERIOR_MATCH_TOLERANCE = 1e-12
MEAN_CHECK_SIGMAS = 4.0


def test_simulation_is_deterministic(mean_shift_demand, unit_noise, grid):
    _, _, w_star = mean_shift_demand
    inc1, shocks1 = simulate_increments(w_star[0], unit_noise, grid, seed=13, n_paths=3)
    inc2, shocks2 = simulate_increments(w_star[0], unit_noise, grid, seed=13, n_paths=3)
    assert np.array_equal(inc1, inc2)
    assert np.array_equal(shocks1, shocks2)
    assert inc1.shape == shocks1.shape == (3, grid.n - 1)
    # path p is row p of the seed's path-shock stream
    stream = standard_normal_matrix(derive_seed(13, *PATH_SHOCKS), 3, grid.n - 1, PATH_BLOCK_SIZE)
    assert np.array_equal(shocks1, stream)


def test_simulated_batches_have_prefix_property(mean_shift_demand, unit_noise, grid):
    # growing the batch must not disturb earlier paths
    _, _, w_star = mean_shift_demand
    inc_small, _ = simulate_increments(w_star[0], unit_noise, grid, seed=21, n_paths=5000)
    inc_large, _ = simulate_increments(w_star[0], unit_noise, grid, seed=21, n_paths=6000)
    assert np.array_equal(inc_small, inc_large[:5000])


def test_increments_decompose_into_drift_and_shock(mean_shift_demand, unit_noise, grid):
    _, _, w_star = mean_shift_demand
    inc, shocks = simulate_increments(w_star[1], unit_noise, grid, seed=3, n_paths=4)
    drift = w_star[1][:-1] * grid.h
    diffusion = unit_noise.sigma[:-1] * math.sqrt(grid.h) * shocks
    assert np.allclose(inc, drift + diffusion, atol=1e-15)


def test_pathwise_posterior_matches_canonical_construction(
    mean_shift_demand, unit_noise, grid
):
    """The path filter is a deterministic function of one Gaussian summary."""
    _, _, w_star = mean_shift_demand
    g = w_star / unit_noise.sigma
    sqh = math.sqrt(grid.h)
    inc, shocks = simulate_increments(w_star[0], unit_noise, grid, seed=500, n_paths=10)
    pi = posterior_weights(log_likelihoods(w_star, inc, unit_noise, grid))
    nu = shocks @ g[:, :-1].T * sqh / ALPHA_STAR_BINARY
    canonical = sample_posterior(ALPHA_STAR_BINARY, 2, 0, nu).q
    assert np.abs(canonical - pi).max() < POSTERIOR_MATCH_TOLERANCE


def test_posterior_weights_normalize():
    log_lik = np.array([[0.0, -3.0, 1.0], [2.0, 2.0, 2.0]])
    pi = posterior_weights(log_lik)
    assert np.allclose(pi.sum(axis=-1), 1.0, atol=1e-15)
    assert np.allclose(pi[1], 1.0 / 3.0, atol=1e-15)


def test_posterior_weights_reject_degenerate_spread():
    wide = np.array([[0.0, LOG_LIK_SPREAD_MAX + 10.0]])
    with pytest.raises(ValueError, match="adkyle.orderflow"):
        posterior_weights(wide)


def test_log_likelihoods_match_manual_formula(mean_shift_demand, unit_noise, grid):
    _, _, w_star = mean_shift_demand
    inc, _ = simulate_increments(w_star[0], unit_noise, grid, seed=8, n_paths=1)
    ll = log_likelihoods(w_star, inc, unit_noise, grid)
    for i in range(2):
        f = w_star[i] / np.square(unit_noise.sigma)
        manual = float(inc[0] @ f[:-1]) - 0.5 * weighted_inner_product(
            w_star[i], w_star[i], unit_noise, grid
        )
        assert ll[0, i] == pytest.approx(manual, rel=1e-12)


def test_market_profit_is_unbiased_for_insider_profit(
    mean_shift_demand, unit_noise, grid
):
    # E[market-maker profit functional] equals the insider cross profit
    _, _, w_star = mean_shift_demand
    target = weighted_inner_product(w_star[0], w_star[0], unit_noise, grid)
    inc, _ = simulate_increments(w_star[0], unit_noise, grid, seed=40_000, n_paths=2000)
    vals = inc @ (w_star[0] / np.square(unit_noise.sigma))[:-1]
    assert vals.shape == (2000,)
    std_err = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - target) <= MEAN_CHECK_SIGMAS * std_err


def test_price_schedule_is_convex_combination(mean_shift_family):
    pi = np.array([0.3, 0.7])
    price = price_schedule(pi, mean_shift_family)
    lo = mean_shift_family.eta.min(axis=0)
    hi = mean_shift_family.eta.max(axis=0)
    assert np.all(price >= lo - 1e-15)
    assert np.all(price <= hi + 1e-15)
    # a degenerate posterior prices the corresponding payoff exactly
    assert np.array_equal(
        price_schedule(np.array([1.0, 0.0]), mean_shift_family),
        mean_shift_family.eta[0],
    )
