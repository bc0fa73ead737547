"""Batched path simulation, pathwise filtering, and the two profit functionals."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from adkyle import (
    log_likelihoods,
    posterior_weights,
    price_schedule,
    simulate_increments,
    weighted_inner_product,
)
from adkyle._rng import PATH_SHOCKS, derive_seed, standard_normal_matrix
from adkyle.orderflow import LOG_LIK_SPREAD_MAX, PATH_BLOCK_SIZE, signal_sum, signal_sweep
from conftest import ALPHA_STAR_BINARY, sample_posterior, softmax

POSTERIOR_MATCH_TOLERANCE = 1e-12
MEAN_CHECK_SIGMAS = 4.0


def test_simulation_is_deterministic(mean_shift_demand, unit_noise, grid):
    _, w_star = mean_shift_demand
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
    _, w_star = mean_shift_demand
    inc_small, _ = simulate_increments(w_star[0], unit_noise, grid, seed=21, n_paths=5000)
    inc_large, _ = simulate_increments(w_star[0], unit_noise, grid, seed=21, n_paths=6000)
    assert np.array_equal(inc_small, inc_large[:5000])


def test_increments_decompose_into_drift_and_shock(mean_shift_demand, unit_noise, grid):
    _, w_star = mean_shift_demand
    inc, shocks = simulate_increments(w_star[1], unit_noise, grid, seed=3, n_paths=4)
    drift = w_star[1][:-1] * grid.h
    diffusion = unit_noise.sigma[:-1] * math.sqrt(grid.h) * shocks
    assert np.allclose(inc, drift + diffusion, atol=1e-15)


def test_pathwise_posterior_matches_canonical_construction(
    mean_shift_demand, unit_noise, grid
):
    """The path filter is a deterministic function of one Gaussian summary."""
    _, w_star = mean_shift_demand
    g = w_star / unit_noise.sigma
    sqh = math.sqrt(grid.h)
    inc, shocks = simulate_increments(w_star[0], unit_noise, grid, seed=500, n_paths=10)
    pi = posterior_weights(log_likelihoods(w_star, inc, unit_noise, grid))
    nu = shocks @ g[:, :-1].T * sqh / ALPHA_STAR_BINARY
    _, canonical = sample_posterior(ALPHA_STAR_BINARY, 2, 0, nu)
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


@st.composite
def signal_batches(draw):
    """(m, I) log-likelihoods, or one 1-D row, with row spreads up to LOG_LIK_SPREAD_MAX.

    Entries are spread * (u - c) with u uniform or on {0, 1/2, 1} (ties), so 0
    lies in every row's range; a share of them is replaced by +0.0 or -0.0.
    """
    I, m = draw(st.integers(2, 40)), draw(st.integers(1, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([0.0, 1.0, LOG_LIK_SPREAD_MAX]) | st.floats(0.0, LOG_LIK_SPREAD_MAX))
    u = rng.integers(0, 3, (m, I)) / 2.0 if draw(st.booleans()) else rng.random((m, I))
    log_lik = spread * (u - draw(st.floats(0.0, 1.0)))
    zeros = rng.random((m, I)) < draw(st.floats(0.0, 1.0))
    log_lik[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    return log_lik[0] if draw(st.booleans()) else log_lik


def same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@seed(1)
@given(log_lik=signal_batches())
@settings(deadline=None, max_examples=60)
def test_signal_sweep_matches_numpy(log_lik):
    # the extremes equal numpy's up to the sign of a zero (array_equal counts -0.0 == 0.0);
    # the beliefs built on them are numpy's byte for byte
    assert np.array_equal(signal_sweep(np.maximum, log_lik), log_lik.max(axis=-1))
    assert np.array_equal(signal_sweep(np.minimum, log_lik), log_lik.min(axis=-1))
    expected = softmax(log_lik)
    rows = np.atleast_2d(log_lik)
    if (rows.max(-1) - rows.min(-1)).max() <= LOG_LIK_SPREAD_MAX:
        assert same_bytes(posterior_weights(log_lik), np.atleast_2d(expected))
    else:  # u - c rounded past the bound
        with pytest.raises(ValueError, match="adkyle.orderflow"):
            posterior_weights(log_lik)


@pytest.mark.parametrize("I", [9, 40])
def test_posterior_weights_ignore_the_sign_of_a_zero_max(I):
    # rows of +-0.0 ties under a -1.0: from I = 9 numpy's eight-lane max and the sweep can
    # return zeros of opposite sign, and exp(x - 0.0) == exp(x + 0.0) keeps the beliefs equal
    log_lik = np.random.default_rng(I).choice([0.0, -0.0, -1.0], (PATH_BLOCK_SIZE, I))
    assert same_bytes(posterior_weights(log_lik), softmax(log_lik))


@pytest.mark.parametrize("I", [2, 3, 8])
@pytest.mark.parametrize("row, col", [(PATH_BLOCK_SIZE - 1, 0), (0, -1)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_posterior_weights_guard_boundary(I, row, col, sign):
    # a spread of exactly LOG_LIK_SPREAD_MAX passes; one row past it fails the whole
    # block, also when it is the block's last row or exceeds only in the last column
    log_lik = np.zeros((PATH_BLOCK_SIZE, I))
    log_lik[:, col] = sign * LOG_LIK_SPREAD_MAX
    assert same_bytes(posterior_weights(log_lik), softmax(log_lik))
    log_lik[row, col] = sign * np.nextafter(LOG_LIK_SPREAD_MAX, np.inf)
    with pytest.raises(ValueError, match="exceeds"):
        posterior_weights(log_lik)


@pytest.mark.parametrize("bad_row", [[0.0, np.nan], [np.nan, 0.0], [-np.inf, -np.inf]])
@pytest.mark.parametrize("where", [0, PATH_BLOCK_SIZE // 2, PATH_BLOCK_SIZE - 1])
def test_posterior_weights_reject_non_finite_rows(bad_row, where):
    # a NaN spread compares False with the bound and used to pass as NaN beliefs
    log_lik = np.tile([0.0, 1.0], (PATH_BLOCK_SIZE, 1))
    log_lik[where] = bad_row
    with pytest.raises(ValueError, match="non-finite"):
        posterior_weights(log_lik)


# every lane boundary of numpy's pairwise sum: sequential below 8, eight lanes up to 128, halves above
LANE_BOUNDARY_SIZES = [*range(1, 10), 15, 16, 17, 127, 128, 129, 130, 255, 256, 257]


@st.composite
def weight_stacks(draw, I):
    """Non-negative (m, I) or (s, m, I) arrays: exp of log-likelihoods, a share set to +0.0."""
    lead = (draw(st.integers(1, 4)),) if draw(st.booleans()) else ()
    shape = (*lead, draw(st.integers(1, 300)), I)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = np.exp(draw(st.floats(0.0, LOG_LIK_SPREAD_MAX)) * -rng.random(shape))
    w[rng.random(shape) < draw(st.floats(0.0, 1.0))] = 0.0
    return w


@pytest.mark.parametrize("I", LANE_BOUNDARY_SIZES)
@seed(2)
@given(data=st.data())
@settings(deadline=None, max_examples=10)
def test_signal_sum_matches_numpy(I, data):
    # numpy's value byte for byte on non-negative input; only a zero row holding a -0.0
    # could differ, in the sign of its sum, and exp never yields -0.0
    w = data.draw(weight_stacks(I))
    assert same_bytes(signal_sum(w), w.sum(axis=-1))


@pytest.mark.parametrize("I", [2, 3, 9, 17])
def test_posterior_weights_of_a_stack_equal_its_slices(I):
    # one call over (s, m, I) is the s separate calls, byte for byte
    rng = np.random.default_rng(I)
    stack = 40.0 * rng.standard_normal((5, PATH_BLOCK_SIZE + 3, I))
    pi = posterior_weights(stack)
    for s in range(len(stack)):
        assert same_bytes(pi[s], posterior_weights(stack[s]))


def test_posterior_weights_guard_reaches_the_last_row_of_the_last_slice():
    # the guard reads the spread of every row of every slice, not only the first slice's
    stack = np.zeros((6, PATH_BLOCK_SIZE, 3))
    stack[..., 0] = LOG_LIK_SPREAD_MAX
    posterior_weights(stack)
    stack[-1, -1, 0] = np.nextafter(LOG_LIK_SPREAD_MAX, np.inf)
    with pytest.raises(ValueError, match=r"adkyle\.orderflow.*exceeds"):
        posterior_weights(stack)


def on_dyadic_grid(x):
    """x rounded to a multiple of 2^-20: below 2^11 in size, sums and differences are exact."""
    return np.round(x * 2.0**20) / 2.0**20


@pytest.mark.parametrize("I", [2, 4, 10])
def test_shifted_posterior_is_the_reweighted_base_posterior(I):
    # softmax(l + s) = pi e^s / (pi . e^s) with pi = softmax(l), the identity foc_terms
    # prices its finite difference by, with u = e^(s - max s).  l and s sit on a dyadic
    # grid, so l + s and every max shift are exact and only the identity's rounding shows.
    # A product pi_i u_i below the smallest normal loses digits, but the shift guard keeps
    # pi . u >= e^-LOG_LIK_SPREAD_MAX, which caps that loss at floor per weight.
    floor = np.finfo(float).smallest_subnormal * math.exp(LOG_LIK_SPREAD_MAX)
    rng = np.random.default_rng(I)
    for scale in (0.0, 1e-3, 1.0, 50.0, 350.0, LOG_LIK_SPREAD_MAX):
        spread = LOG_LIK_SPREAD_MAX * rng.random((PATH_BLOCK_SIZE, 1)) ** 2
        log_lik = on_dyadic_grid(spread * (rng.random((PATH_BLOCK_SIZE, I))
                                           - rng.random((PATH_BLOCK_SIZE, 1))))
        log_lik = log_lik[np.ptp(log_lik, axis=1) <= LOG_LIK_SPREAD_MAX]
        s = on_dyadic_grid(scale * (rng.random(I) - rng.random()))
        pi = posterior_weights(log_lik)
        u = np.exp(s - s.max())
        reweighted = pi * u / (pi @ u)[:, None]
        # rows whose shifted spread passes the guard match posterior_weights; the rest
        # (the reweighting needs no guard on them) match the unguarded softmax
        shifted = log_lik + s
        inside = np.ptp(shifted, axis=1) <= LOG_LIK_SPREAD_MAX
        expected = np.empty_like(shifted)
        expected[inside] = posterior_weights(shifted[inside])
        expected[~inside] = softmax(shifted[~inside])
        assert np.all(np.abs(reweighted - expected) <= 1e-13 * expected + floor), scale


def test_log_likelihoods_match_manual_formula(mean_shift_demand, unit_noise, grid):
    _, w_star = mean_shift_demand
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
    _, w_star = mean_shift_demand
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
