"""Cross-impact estimation and the efficiency sweep."""

import math

import numpy as np
import pytest

import adkyle.posterior
from adkyle import (
    NoiseProfile,
    derivative_cross_impact,
    efficiency_sweep,
    impact_surface,
    log_likelihoods,
    make_payoff_family,
    posterior_weights,
    true_belief_moments,
)
from adkyle.analytics import spread_indices
from adkyle.config import SUBGRID_MIN
from adkyle.orderflow import PATH_BLOCK_SIZE
from conftest import (candidate_demand, count_block_generators, exact_binary_equilibrium,
                      impact_from_paths, sample_posterior, statistic_shocks)

from adkyle import build_canonical_kernel, equilibrium_demand, solve_alpha_star

SIGN_SIGMAS = 3.0
NULL_FLOOR = 1e-10
IMPACT_PATHS = 10_000
BASELINE_TOLERANCE = 1e-12
ORACLE_PATHS = 20_000
ORACLE_DRAWS = 100_000


def variance_demand(variance_family, unit_noise, grid):
    kern = build_canonical_kernel(variance_family, unit_noise, grid)
    eq = exact_binary_equilibrium(kern)
    w_star = equilibrium_demand(eq, kern, variance_family, unit_noise)
    return w_star


def test_node_index_round_trip(grid):
    assert grid.nodes[grid.node(1.0)] == 1.0
    assert grid.nodes[grid.node(-8.0)] == -8.0
    with pytest.raises(ValueError, match="not a grid node"):
        grid.node(1.5 + grid.h / 3.0)


def both_estimates(x_values, y_values, w_star, family, noise, grid, seed):
    """[closed form, path oracle at IMPACT_PATHS paths], each (values, std_errs)."""
    return [impact_surface(x_values, y_values, w_star, family, noise, grid),
            impact_from_paths(x_values, y_values, w_star, family, noise, grid,
                              IMPACT_PATHS, seed)]


def test_own_impact_is_positive(mean_shift_demand, mean_shift_family, unit_noise, grid):
    _, w_star = mean_shift_demand
    for value, std_err in both_estimates([1.0], [1.0], w_star, mean_shift_family, unit_noise,
                                         grid, seed=5):
        assert value.item() > SIGN_SIGMAS * std_err.item()


def test_impact_vanishes_where_demand_is_flat(
    mean_shift_demand, mean_shift_family, unit_noise, grid
):
    # symmetric mean-shift demand crosses zero at the midpoint, so impact
    # sourced there is indistinguishable from zero
    _, w_star = mean_shift_demand
    for value, std_err in both_estimates([1.0], [0.0], w_star, mean_shift_family, unit_noise,
                                         grid, seed=5):
        assert abs(value.item()) <= SIGN_SIGMAS * std_err.item() + NULL_FLOOR


def test_opposite_tails_carry_negative_impact(
    mean_shift_demand, mean_shift_family, unit_noise, grid
):
    _, w_star = mean_shift_demand
    for value, std_err in both_estimates([2.0], [-2.0], w_star, mean_shift_family, unit_noise,
                                         grid, seed=5):
        assert value.item() < -SIGN_SIGMAS * std_err.item()


def test_variance_family_impact_is_even_in_the_source(
    variance_family, unit_noise, grid
):
    w_star = variance_demand(variance_family, unit_noise, grid)
    lefts = both_estimates([2.0], [-2.0], w_star, variance_family, unit_noise, grid, seed=6)
    rights = both_estimates([2.0], [2.0], w_star, variance_family, unit_noise, grid, seed=6)
    for (left, _), (right, _) in zip(lefts, rights):
        assert left.item() == right.item()  # even payoff rows, identical shocks
        assert left.item() > 0.0


def test_conditioning_changes_the_estimate(unit_noise, grid):
    # at I = 2 both truths see the same E[C | t] (C_jj = E[q_j (1 - q_j)] = B), so
    # conditioning moves nothing but rounding; at I = 4 the pinned truth's row
    # and column differ from the rivals'
    points = np.array([-1.4, 0.52, 1.4])
    for means, sd in (([-1.0, 1.0], 1.0), ([-4.2, -1.4, 1.4, 4.2], 0.35)):
        family = make_payoff_family("gaussian_mean_shift", {"means": means, "sd": sd}, grid)
        kern = build_canonical_kernel(family, unit_noise, grid)
        w_star = equilibrium_demand(exact_binary_equilibrium(kern), kern, family, unit_noise)
        args = (points, points, w_star, family, unit_noise, grid)
        mixed, errs = impact_surface(*args)
        given, _ = impact_surface(*args, conditioned_on=1)
        if family.I == 2:
            np.testing.assert_allclose(given, mixed, rtol=1e-12, atol=1e-15)
        else:
            assert np.abs(given - mixed).max() > 1e6 * errs.max()


def test_one_path_has_zero_standard_errors(mean_shift_demand, mean_shift_family, unit_noise,
                                           grid):
    # one path has no spread, as in mean_and_std_err: the oracle reports 0, not NaN
    _, w_star = mean_shift_demand
    points = grid.nodes[::40]
    for seed in range(5):
        values, errs = impact_from_paths(points, points, w_star, mean_shift_family, unit_noise,
                                         grid, n_paths=1, seed=seed)
        assert np.all(np.isfinite(values)) and np.any(values != 0.0)
        assert np.all(errs == 0.0)


def test_surface_agrees_with_pointwise_estimates(
    mean_shift_demand, mean_shift_family, unit_noise, grid
):
    _, w_star = mean_shift_demand
    points = np.array([-1.0, 1.0])
    args = (w_star, mean_shift_family, unit_noise, grid)
    values, errs = impact_from_paths(points, points, *args, n_paths=4000, seed=5)
    closed, bounds = impact_surface(points, points, *args)
    assert values.shape == closed.shape == (2, 2)
    assert np.all(errs > 0.0) and np.all(bounds > 0.0)
    for a, x in enumerate(points):
        for b, y in enumerate(points):
            value, std_err = impact_from_paths([x], [y], *args, n_paths=4000, seed=5)
            # same paths: only the rounding of a one-column product differs
            assert value.item() == pytest.approx(values[a, b], rel=1e-12, abs=1e-15)
            assert std_err.item() == pytest.approx(errs[a, b], rel=1e-12)
            value, bound = impact_surface([x], [y], *args)
            assert value.item() == pytest.approx(closed[a, b], rel=1e-12, abs=1e-15)
            assert bound.item() == pytest.approx(bounds[a, b], rel=1e-12)


def _impact_from_full_paths(points, w_star, family, noise, grid, n_paths, seed, conditioned_on):
    """Brute-force impact_from_paths: per-path covariances from full increments on its shocks."""
    idx = np.array([grid.nearest(p) for p in points])
    shocks = statistic_shocks(w_star, noise, grid, seed, n_paths)
    eta_x, w_y = family.eta[:, idx], w_star[:, idx]
    truths = range(family.I) if conditioned_on is None else [conditioned_on]
    cov = 0.0
    for t in truths:
        inc = w_star[t, :-1] * grid.h + noise.sigma[:-1] * math.sqrt(grid.h) * shocks
        pi = posterior_weights(log_likelihoods(w_star, inc, noise, grid))
        cov = cov + (np.einsum("mi,ik,il->mkl", pi, eta_x, w_y)
                     - (pi @ eta_x)[:, :, None] * (pi @ w_y)[:, None, :]) / len(truths)
    cov /= np.square(noise.sigma[idx])[None, None, :]
    return cov.mean(axis=0), cov.std(axis=0, ddof=1) / math.sqrt(n_paths)


@pytest.mark.parametrize("means,conditioned_on", [
    ([-1.0, 1.0], None), ([-1.5, -0.5, 0.5, 1.5], None), ([-1.5, -0.5, 0.5, 1.5], 2),
])
def test_surface_matches_full_path_reference(means, conditioned_on, grid):
    # the oracle's I projections per path and its atom-centred columns; the per-path
    # einsum over full increments must agree to rounding, including at the
    # signal-invariant source x = 0, where Lambda vanishes
    family = make_payoff_family("gaussian_mean_shift", {"means": means, "sd": 1.0}, grid)
    noise = NoiseProfile(sigma=1.0 + 0.05 * (grid.nodes - grid.x_min))
    w_star = candidate_demand(build_canonical_kernel(family, noise, grid), family, noise)
    w_star *= np.linspace(0.8, 1.2, family.I)[:, None]  # unequal norms: the Gram diagonal counts
    points = np.array([-2.0, -1.0, 0.0, 0.52, 2.0])
    n_paths, seed = 3 * PATH_BLOCK_SIZE + 100, 13
    values, errs = impact_from_paths(points, points, w_star, family, noise, grid,
                                     n_paths, seed, conditioned_on)
    ref_values, ref_errs = _impact_from_full_paths(
        points, w_star, family, noise, grid, n_paths, seed, conditioned_on)
    for got, ref in ((values, ref_values), (errs, ref_errs)):
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())


def test_non_equilibrium_demand_is_rejected(mean_shift_demand, mean_shift_family, unit_noise,
                                            grid):
    # unequal row norms: the order-flow posterior no longer has the canonical law
    _, w_star = mean_shift_demand
    scaled = w_star * np.linspace(0.8, 1.2, mean_shift_family.I)[:, None]
    with pytest.raises(ValueError, match="adkyle.analytics: demand Gram deviates"):
        impact_surface([1.0], [1.0], scaled, mean_shift_family, unit_noise, grid)


@pytest.mark.parametrize("means,sd", [([-1.0, 1.0], 1.0), ([-4.2, -1.4, 1.4, 4.2], 0.35)])
@pytest.mark.parametrize("conditioned_on", [None, 1])
def test_surface_mean_equals_the_canonical_posterior_covariance(means, sd, conditioned_on,
                                                                unit_noise, grid):
    # an oracle that sees no order flow: at the equilibrium the Gram matrix of the demand
    # rows is alpha*^2 Q, so each path's posterior has the canonical law of sample_posterior
    # and E[Lambda] = a~^T E[C] b~, with C = diag(q) - q q^T and the atom-centred columns;
    # the closed form, the path oracle and the canonical draws agree within 3 SE
    family = make_payoff_family("gaussian_mean_shift", {"means": means, "sd": sd}, grid)
    kern = build_canonical_kernel(family, unit_noise, grid)
    eq = solve_alpha_star(kern.I)
    w_star = equilibrium_demand(eq, kern, family, unit_noise)
    points = np.array([-1.4, 0.52, 1.4, 4.2])
    args = (points, points, w_star, family, unit_noise, grid)
    closed, bound = impact_surface(*args, conditioned_on=conditioned_on)
    values, errs = impact_from_paths(*args, ORACLE_PATHS, 31, conditioned_on)
    idx = [grid.node(p) for p in points]
    a, b = family.eta[:, idx], w_star[:, idx] / np.square(unit_noise.sigma[idx])
    a, b = a - a.mean(axis=0), b - b.mean(axis=0)
    noise = np.random.default_rng(32).standard_normal((ORACLE_DRAWS, family.I))
    truths = range(family.I) if conditioned_on is None else [conditioned_on]
    per_draw = 0.0  # a~^T C b~ per draw, averaged over the uniform true signal
    for t in truths:
        _, q = sample_posterior(eq.alpha_star, family.I, t, noise)
        per_draw = per_draw + (np.einsum("mi,ik,il->mkl", q, a, b)
                               - (q @ a)[:, :, None] * (q @ b)[:, None, :]) / len(truths)
    oracle = per_draw.mean(axis=0)
    oracle_se = per_draw.std(axis=0, ddof=1) / math.sqrt(ORACLE_DRAWS)
    assert np.abs(oracle).max() > 10.0 * np.hypot(errs, oracle_se).max()  # Lambda is not 0
    assert np.all(np.abs(values - oracle) <= SIGN_SIGMAS * np.hypot(errs, oracle_se))
    assert np.all(np.abs(closed - oracle) <= SIGN_SIGMAS * (oracle_se + bound))
    assert np.all(np.abs(closed - values) <= SIGN_SIGMAS * (errs + bound))


@pytest.mark.parametrize("conditioned_on", [-1, 2])
def test_conditioning_out_of_range_is_rejected(conditioned_on, mean_shift_demand,
                                               mean_shift_family, unit_noise, grid):
    # a negative index must not wrap to signal I - 1, nor a large one end in IndexError
    _, w_star = mean_shift_demand
    args = (w_star, mean_shift_family, unit_noise, grid)
    with pytest.raises(ValueError, match="adkyle.analytics: conditioned_on"):
        impact_surface([1.0], [1.0], *args, conditioned_on=conditioned_on)


def test_spread_indices_keep_the_ends_and_stop_at_every_index():
    assert spread_indices(3, 13, 6).tolist() == [3, 5, 7, 9, 11, 13]
    assert spread_indices(0, 4, 4).tolist() == [0, 1, 3, 4]  # 1.33 and 2.67 round apart
    for n_sub in (11, 12, 2**40):  # no more points than the range holds, however many asked
        assert spread_indices(3, 13, n_sub).tolist() == list(range(3, 14))


def test_spread_indices_equal_their_unique_form():
    # the rounded points never decrease, so dropping adjacent repeats is np.unique
    for n_sub in range(SUBGRID_MIN, 65):
        for lo in (0, 7):
            for nodes in (*range(1, 3 * n_sub + 2), 1000, 100_001):  # hi - lo + 1
                hi = lo + nodes - 1
                expected = np.unique(np.round(np.linspace(lo, hi, min(n_sub, nodes))).astype(int))
                got = spread_indices(lo, hi, n_sub)
                assert got.dtype == expected.dtype and np.array_equal(got, expected), (lo, hi)


def test_derivative_cross_impact_is_grid_converged(grid):
    # synthetic separable kernel with smooth Gaussian profiles: the estimate
    # must be stable under sub-grid refinement
    x = grid.nodes
    phi1 = np.exp(-0.5 * np.square((x - 1.0) / 0.8))
    phi2 = np.exp(-0.5 * np.square((x + 1.0) / 0.8))

    def impact_fn(xv, yv):
        return np.outer(1.0 + 0.3 * xv, 2.0 - 0.1 * yv)

    coarse = derivative_cross_impact(phi1, phi2, impact_fn, grid, n_sub=21)
    fine = derivative_cross_impact(phi1, phi2, impact_fn, grid, n_sub=41)
    assert coarse == pytest.approx(fine, abs=1e-6)


@pytest.mark.parametrize("means, sd, slope, conditioned_on", [
    ([-1.0, 1.0], 1.0, 0.05, None),
    ([-4.2, -1.4, 1.4, 4.2], 0.35, 0.0, 1),
    ([-4.2, -1.4, 1.4, 4.2], 0.35, 0.0, None),
])
def test_cross_impact_between_two_books_is_reciprocal(means, sd, slope, conditioned_on, grid):
    # W / sigma^2 is proportional to eta - eta_bar (Caballe & Krishnan 1994), so Lambda(x, y)
    # is symmetric, under sloped noise too: book 1 moves book 2 as book 2 moves book 1
    noise = NoiseProfile(1.0 + slope * (grid.nodes - grid.x_min))
    family = make_payoff_family("gaussian_mean_shift", {"means": means, "sd": sd}, grid)
    kern = build_canonical_kernel(family, noise, grid)
    w_star = equilibrium_demand(solve_alpha_star(kern.I), kern, family, noise)

    def impact_fn(xs, ys):
        return impact_surface(xs, ys, w_star, family, noise, grid, conditioned_on)[0]

    x = grid.nodes
    book1 = np.maximum(0.0, 1.0 - np.square((x - 1.0) / 1.5))
    book2 = np.maximum(0.0, 1.0 - np.square((x + 1.2) / 1.8))
    d12 = derivative_cross_impact(book1, book2, impact_fn, grid)
    d21 = derivative_cross_impact(book2, book1, impact_fn, grid)
    assert abs(d12) > 1e-3 and abs(d12 - d21) <= 1e-12 * abs(d12)


def test_derivative_cross_impact_argument_validation(grid):
    x = grid.nodes
    phi = np.exp(-0.5 * np.square(x))
    with pytest.raises(ValueError, match="adkyle.analytics"):
        derivative_cross_impact(phi, phi, lambda a, b: a + b, grid, n_sub=5)
    narrow = np.zeros_like(x)
    narrow[200:203] = 1.0
    with pytest.raises(ValueError, match="adkyle.analytics"):
        derivative_cross_impact(narrow, phi, lambda a, b: a + b, grid, n_sub=21)


@pytest.mark.parametrize("I", [2, 4, 6, 8])
def test_uninformed_baseline_efficiency(I):
    # at alpha_bar = 0 the posterior is uniform: q_t = 1/I on every draw
    not_true, spread = true_belief_moments(0.0, I)
    assert abs((1.0 - not_true) - 1.0 / I) < BASELINE_TOLERANCE
    assert abs(spread - (1.0 / I) * (1.0 - 1.0 / I)) < BASELINE_TOLERANCE


def test_efficiency_sweep_declines_with_crowd_size():
    rows = efficiency_sweep()
    assert [r.I for r in rows] == [2, 4, 6, 8]
    for a, b in zip(rows, rows[1:]):
        assert b.alpha_star > a.alpha_star
        assert b.ie < a.ie
        assert a.ie - b.ie > SIGN_SIGMAS * math.hypot(a.ie_std_err, b.ie_std_err)


def test_efficiency_sweep_rows_equal_standalone_estimates(monkeypatch):
    draws = count_block_generators(monkeypatch)
    builds, real = [], adkyle.posterior._lines
    monkeypatch.setattr(adkyle.posterior, "_lines", lambda a: builds.append(a) or real(a))
    rows = efficiency_sweep()
    assert draws == []  # the solve integrates its residual; it draws nothing
    # the solves share the windows of the alpha_bar they all evaluate: 36 evaluations on
    # 29 windows, and the windows live for one call only
    assert sum(len(r.mc_meta["trace"]) for r in rows) == 36
    assert len(builds) == 29 == len(set(builds))
    assert efficiency_sweep() == rows and len(builds) == 2 * 29
    for r in rows:
        # dataclass equality: every field, mc_meta's trace, bracket and counts too
        assert r == solve_alpha_star(r.I)


def test_invariance_under_noise_doubling(mean_shift_family, unit_noise, grid):
    # the root depends on I alone; doubling the noise quadruples c, halves the
    # raw coefficient alpha_star / sqrt(c) and doubles the demand, all exactly
    doubled = NoiseProfile(2.0 * unit_noise.sigma)
    base, scaled = (build_canonical_kernel(mean_shift_family, noise, grid)
                    for noise in (unit_noise, doubled))
    eq_base, eq_scaled = solve_alpha_star(base.I), solve_alpha_star(scaled.I)
    assert eq_scaled.alpha_star == eq_base.alpha_star
    assert eq_scaled.ie == eq_base.ie
    assert scaled.c == 4.0 * base.c
    assert (eq_scaled.alpha_star / math.sqrt(scaled.c)
            == 0.5 * eq_base.alpha_star / math.sqrt(base.c))
    w_base = equilibrium_demand(eq_base, base, mean_shift_family, unit_noise)
    w_scaled = equilibrium_demand(eq_scaled, scaled, mean_shift_family, doubled)
    assert np.array_equal(w_scaled, 2.0 * w_base)
