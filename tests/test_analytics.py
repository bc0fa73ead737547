"""Cross-impact estimation, the efficiency sweep, and scaling invariance."""

import math

import numpy as np
import pytest

from adkyle import (
    NoiseProfile,
    derivative_cross_impact,
    efficiency_sweep,
    identity_kernel,
    impact_surface,
    invariance_experiment,
    log_likelihoods,
    make_payoff_family,
    posterior_weights,
    sample_posterior,
    true_belief_moments,
)
from adkyle._rng import block_generator, derive_seed
from adkyle.analytics import _path_signals
from adkyle.orderflow import PATH_BLOCK_SIZE
from conftest import count_block_generators, exact_binary_equilibrium, statistic_shocks

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
    _, w_star = equilibrium_demand(eq, kern, variance_family)
    return w_star


def test_node_index_round_trip(grid):
    assert grid.nodes[grid.node(1.0)] == 1.0
    assert grid.nodes[grid.node(-8.0)] == -8.0
    with pytest.raises(ValueError, match="not a grid node"):
        grid.node(1.5 + grid.h / 3.0)


def test_own_impact_is_positive(mean_shift_demand, mean_shift_family, unit_noise, grid):
    _, _, w_star = mean_shift_demand
    value, std_err = impact_surface(
        [1.0], [1.0], w_star, mean_shift_family, unit_noise, grid,
        n_paths=IMPACT_PATHS, seed=5,
    )
    assert value.item() > SIGN_SIGMAS * std_err.item()


def test_impact_vanishes_where_demand_is_flat(
    mean_shift_demand, mean_shift_family, unit_noise, grid
):
    # symmetric mean-shift demand crosses zero at the midpoint, so impact
    # sourced there is indistinguishable from zero
    _, _, w_star = mean_shift_demand
    value, std_err = impact_surface(
        [1.0], [0.0], w_star, mean_shift_family, unit_noise, grid,
        n_paths=IMPACT_PATHS, seed=5,
    )
    assert abs(value.item()) <= SIGN_SIGMAS * std_err.item() + NULL_FLOOR


def test_opposite_tails_carry_negative_impact(
    mean_shift_demand, mean_shift_family, unit_noise, grid
):
    _, _, w_star = mean_shift_demand
    value, std_err = impact_surface(
        [2.0], [-2.0], w_star, mean_shift_family, unit_noise, grid,
        n_paths=IMPACT_PATHS, seed=5,
    )
    assert value.item() < -SIGN_SIGMAS * std_err.item()


def test_variance_family_impact_is_even_in_the_source(
    variance_family, unit_noise, grid
):
    w_star = variance_demand(variance_family, unit_noise, grid)
    left, _ = impact_surface(
        [2.0], [-2.0], w_star, variance_family, unit_noise, grid,
        n_paths=IMPACT_PATHS, seed=6,
    )
    right, _ = impact_surface(
        [2.0], [2.0], w_star, variance_family, unit_noise, grid,
        n_paths=IMPACT_PATHS, seed=6,
    )
    assert left.item() == right.item()  # even payoff rows, identical shocks
    assert left.item() > 0.0


def test_conditioning_changes_the_estimate(
    mean_shift_demand, mean_shift_family, unit_noise, grid
):
    _, _, w_star = mean_shift_demand
    mixed, _ = impact_surface(
        [1.0], [1.0], w_star, mean_shift_family, unit_noise, grid,
        n_paths=4000, seed=5,
    )
    given_low, _ = impact_surface(
        [1.0], [1.0], w_star, mean_shift_family, unit_noise, grid,
        n_paths=4000, seed=5, conditioned_on=0,
    )
    assert given_low.item() != mixed.item()


def test_one_path_has_zero_standard_errors(mean_shift_demand, mean_shift_family, unit_noise,
                                           grid):
    # one path has no spread, as in mean_and_std_err; the one-pass variance
    # s2 - n mean^2 would leave rounding residue (up to about 1e-12 here)
    _, _, w_star = mean_shift_demand
    points = grid.nodes[::40]
    for seed in range(5):
        values, errs = impact_surface(points, points, w_star, mean_shift_family, unit_noise,
                                      grid, n_paths=1, seed=seed)
        assert np.all(np.isfinite(values)) and np.any(values != 0.0)
        assert np.all(errs == 0.0)


def test_surface_agrees_with_pointwise_estimates(
    mean_shift_demand, mean_shift_family, unit_noise, grid
):
    _, _, w_star = mean_shift_demand
    points = np.array([-1.0, 1.0])
    values, errs = impact_surface(
        points, points, w_star, mean_shift_family, unit_noise, grid,
        n_paths=4000, seed=5,
    )
    assert values.shape == (2, 2)
    assert np.all(errs > 0.0)
    for a, x in enumerate(points):
        for b, y in enumerate(points):
            value, std_err = impact_surface(
                [x], [y], w_star, mean_shift_family, unit_noise, grid,
                n_paths=4000, seed=5,
            )
            # same paths: only the rounding of a one-column matmul differs
            assert value.item() == pytest.approx(values[a, b], rel=1e-12, abs=1e-15)
            assert std_err.item() == pytest.approx(errs[a, b], rel=1e-12)


def _impact_from_full_paths(points, w_star, family, noise, grid, n_paths, seed, conditioned_on):
    """Brute-force impact_surface: per-path covariances from full increments on the statistic's shocks."""
    idx = np.array([grid.nearest(p) for p in points])
    signals = _path_signals(seed, family.I, n_paths, conditioned_on)
    shocks = statistic_shocks(w_star, noise, grid, seed, n_paths)
    inc = w_star[signals, :-1] * grid.h + noise.sigma[:-1] * math.sqrt(grid.h) * shocks
    pi = posterior_weights(log_likelihoods(w_star, inc, noise, grid))
    eta_x, w_y = family.eta[:, idx], w_star[:, idx]
    cov = np.einsum("mi,ik,il->mkl", pi, eta_x, w_y)
    cov -= (pi @ eta_x)[:, :, None] * (pi @ w_y)[:, None, :]
    cov /= np.square(noise.sigma[idx])[None, None, :]
    return cov.mean(axis=0), cov.std(axis=0, ddof=1) / math.sqrt(n_paths)


@pytest.mark.parametrize("means,conditioned_on", [
    ([-1.0, 1.0], None), ([-1.5, -0.5, 0.5, 1.5], None), ([-1.5, -0.5, 0.5, 1.5], 2),
])
def test_surface_matches_full_path_reference(means, conditioned_on, grid):
    # impact_surface sums C_m and C_m (x) C_m over I-dimensional posteriors; the
    # per-path einsum over full increments must agree to rounding, including
    # at the signal-invariant source x = 0, where Lambda vanishes
    family = make_payoff_family("gaussian_mean_shift", {"means": means, "sd": 1.0}, grid)
    noise = NoiseProfile(sigma=1.0 + 0.05 * (grid.nodes - grid.x_min))
    kern = build_canonical_kernel(family, noise, grid)
    _, w_star = equilibrium_demand(exact_binary_equilibrium(kern), kern, family)
    w_star *= np.linspace(0.8, 1.2, family.I)[:, None]  # unequal norms: the Gram diagonal counts
    points = np.array([-2.0, -1.0, 0.0, 0.52, 2.0])
    n_paths, seed = 3 * PATH_BLOCK_SIZE + 100, 13
    values, errs = impact_surface(points, points, w_star, family, noise, grid,
                                  n_paths=n_paths, seed=seed, conditioned_on=conditioned_on)
    ref_values, ref_errs = _impact_from_full_paths(
        points, w_star, family, noise, grid, n_paths, seed, conditioned_on)
    for got, ref in ((values, ref_values), (errs, ref_errs)):
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())


@pytest.mark.parametrize("means,sd", [([-1.0, 1.0], 1.0), ([-4.2, -1.4, 1.4, 4.2], 0.35)])
@pytest.mark.parametrize("conditioned_on", [None, 1])
def test_surface_mean_equals_the_canonical_posterior_covariance(means, sd, conditioned_on,
                                                                unit_noise, grid):
    # an oracle that sees no order flow: at the equilibrium the Gram matrix of the demand
    # rows is alpha*^2 Q, so each path's posterior has the canonical law of sample_posterior
    # and E[Lambda] = a~^T E[C] b~, with C = diag(q) - q q^T and the atom-centred columns
    family = make_payoff_family("gaussian_mean_shift", {"means": means, "sd": sd}, grid)
    kern = build_canonical_kernel(family, unit_noise, grid)
    eq = solve_alpha_star(kern)
    _, w_star = equilibrium_demand(eq, kern, family)
    points = np.array([-1.4, 0.52, 1.4, 4.2])
    values, errs = impact_surface(points, points, w_star, family, unit_noise, grid,
                                  n_paths=ORACLE_PATHS, seed=31, conditioned_on=conditioned_on)
    idx = [grid.node(p) for p in points]
    a, b = family.eta[:, idx], w_star[:, idx] / np.square(unit_noise.sigma[idx])
    a, b = a - a.mean(axis=0), b - b.mean(axis=0)
    noise = np.random.default_rng(32).standard_normal((ORACLE_DRAWS, family.I))
    truths = range(family.I) if conditioned_on is None else [conditioned_on]
    per_draw = 0.0  # a~^T C b~ per draw, averaged over the uniform true signal
    for t in truths:
        q = sample_posterior(eq.alpha_star, family.I, t, noise).q
        per_draw = per_draw + (np.einsum("mi,ik,il->mkl", q, a, b)
                               - (q @ a)[:, :, None] * (q @ b)[:, None, :]) / len(truths)
    oracle = per_draw.mean(axis=0)
    oracle_se = per_draw.std(axis=0, ddof=1) / math.sqrt(ORACLE_DRAWS)
    combined = np.sqrt(np.square(errs) + np.square(oracle_se))
    assert np.abs(oracle).max() > 10.0 * combined.max()  # the check can tell Lambda from 0
    assert np.all(np.abs(values - oracle) <= SIGN_SIGMAS * combined)


@pytest.mark.parametrize("conditioned_on", [-1, 2])
def test_conditioning_out_of_range_is_rejected(conditioned_on, mean_shift_demand,
                                               mean_shift_family, unit_noise, grid):
    # a negative index must not wrap to signal I - 1, nor a large one end in IndexError
    _, _, w_star = mean_shift_demand
    args = (w_star, mean_shift_family, unit_noise, grid)
    with pytest.raises(ValueError, match="adkyle.analytics: conditioned_on"):
        impact_surface([1.0], [1.0], *args, n_paths=100, seed=0, conditioned_on=conditioned_on)


def test_path_signals_fill_their_blocks_in_place():
    # one preallocated vector, the concatenation of the counter blocks
    n, seed = 2 * PATH_BLOCK_SIZE + 7, 19
    sig_seed = derive_seed(seed, 1)
    reference = np.concatenate([
        block_generator(sig_seed, 0).integers(0, 4, size=PATH_BLOCK_SIZE),
        block_generator(sig_seed, 1).integers(0, 4, size=PATH_BLOCK_SIZE),
        block_generator(sig_seed, 2).integers(0, 4, size=7),
    ])
    assert np.array_equal(_path_signals(seed, 4, n, None), reference)
    assert np.array_equal(_path_signals(seed, 4, n, 3), np.full(n, 3))


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
    rows = efficiency_sweep()
    assert draws == []  # the solve integrates its residual; it draws nothing
    for r in rows:
        eq = solve_alpha_star(identity_kernel(r.I))
        assert (r.alpha_star, r.ie, r.ie_std_err) == (eq.alpha_star, eq.ie, eq.ie_std_err)


def test_invariance_under_noise_doubling(mean_shift_family, unit_noise, grid):
    base, scaled = invariance_experiment(mean_shift_family, unit_noise, grid, scale=2.0)
    assert scaled.alpha_star == base.alpha_star
    assert scaled.alpha_raw == 2.0 * base.alpha_raw
    assert scaled.ie == base.ie


def test_invariance_reports_the_solves_efficiency(mean_shift_family, unit_noise, grid):
    # E[q_true] at each root is the solve's own value, not a fresh estimate
    base, _ = invariance_experiment(mean_shift_family, unit_noise, grid, scale=2.0)
    kern = build_canonical_kernel(mean_shift_family, unit_noise, grid)
    assert base.ie == solve_alpha_star(kern).ie


def test_invariance_rejects_bad_scale(mean_shift_family, unit_noise, grid):
    with pytest.raises(ValueError, match="adkyle.analytics"):
        invariance_experiment(mean_shift_family, unit_noise, grid, scale=0.0)
