"""Expected-utility decomposition, first-order checks, and impact-free directions.

foc_terms works in closed form at an equilibrium demand; the path oracles of
conftest (foc_from_paths, expected_utility) take any trade and are checked here
too, against full order-flow increments.
"""

import math

import numpy as np
import pytest

import adkyle.objective
import adkyle.posterior
from adkyle import (
    NoiseProfile,
    build_canonical_kernel,
    build_state_grid,
    equilibrium_demand,
    foc_terms,
    log_likelihoods,
    make_payoff_family,
    normalized_family,
    posterior_weights,
    solve_alpha_star,
    weighted_inner_product,
    zero_impact_direction,
)
from adkyle.orderflow import PATH_BLOCK_SIZE
from conftest import (FD_REL_EPS, candidate_demand, exact_binary_equilibrium, expected_utility,
                      foc_from_paths, statistic_shocks)

CLOSURE_SIGMAS = 3.0
ORTHOGONALITY_TOLERANCE = 1e-14  # of |W_i|_sigma; rounding reads up to 5.4e-16
IMPACT_NULL_TOLERANCE = 1e-12
FOC_PATHS = 5000


def test_report_decomposition_is_internally_consistent(
    mean_shift_demand, mean_shift_family, unit_noise, grid
):
    _, w_star = mean_shift_demand
    v = mean_shift_family.eta[0] - mean_shift_family.eta.mean(axis=0)
    rep = foc_terms(v[None], w_star, mean_shift_family, 0, unit_noise, grid)[0]
    assert rep.analytic_total == pytest.approx(
        rep.payoff_term - rep.adverse_selection_term - rep.impact_term, abs=1e-12
    )
    assert rep.diff == pytest.approx(rep.analytic_total - rep.fd_total, abs=1e-12)
    assert rep.fd_epsilon > 0.0
    assert abs(rep.analytic_total) <= rep.residual_bound and abs(rep.diff) <= rep.fd_bound


def test_decomposition_closes_against_finite_differences(
    mean_shift_demand, mean_shift_family, unit_noise, grid
):
    _, w_star = mean_shift_demand
    x = grid.nodes
    rng = np.random.default_rng(5)
    for k in range(3):
        c1, c2 = rng.uniform(-2.5, 2.5, 2)
        w = rng.uniform(-1, 1) * np.exp(-0.5 * np.square(x - c1))
        v = rng.uniform(-1, 1) * np.exp(-0.5 * np.square(x - c2))
        rep = foc_from_paths(
            w, v, w_star, mean_shift_family, 0, unit_noise, grid,
            n_paths=FOC_PATHS, seed=60 + k,
        )
        assert abs(rep.diff) <= CLOSURE_SIGMAS * rep.std_err_fd
        # the coupled estimators track each other far inside the headline noise
        assert rep.std_err_diff < rep.std_err_fd


def test_gradient_vanishes_at_the_fixed_point(
    mean_shift_demand, mean_shift_family, unit_noise, grid
):
    # at the solved demand schedule, centered payoff perturbations are
    # first-order neutral
    _, w_star = mean_shift_demand
    mbar = mean_shift_family.eta.mean(axis=0)
    for i in range(2):
        v = mean_shift_family.eta[i] - mbar
        rep = foc_from_paths(
            w_star[0], v, w_star, mean_shift_family, 0, unit_noise, grid,
            n_paths=20_000, seed=7,
        )
        assert abs(rep.fd_total) <= 4.0 * rep.std_err_fd


MEAN_SHIFT = {"means": [-1.0, 1.0], "sd": 1.0}
DEFAULT_GRID = (-8.0, 8.0, 401)
ZERO_IMPACT_CASES = {  # family kind (None: own rows), parameters, noise slope, grid
    "mean_shift": ("gaussian_mean_shift", MEAN_SHIFT, 0.0, DEFAULT_GRID),
    "mean_shift_sloped": ("gaussian_mean_shift", MEAN_SHIFT, 0.3, DEFAULT_GRID),
    "variance_sloped": ("gaussian_variance", {"mu": 0.0, "sds": [1.0, 1.5]}, 0.3, DEFAULT_GRID),
    "skew_sloped": ("skew_normal", {"shapes": [4.0, -4.0]}, 0.05, DEFAULT_GRID),
    "tabulated_sloped": (None, None, 0.3, DEFAULT_GRID),
    "I16_mean_shift": ("gaussian_mean_shift",
                       {"means": [2.8 * (k - 7.5) for k in range(16)], "sd": 0.35}, 0.0,
                       (-25.4, 25.4, 339)),
}


@pytest.mark.parametrize("name", ZERO_IMPACT_CASES)
def test_zero_impact_direction_is_unit_and_orthogonal(name):
    # W_i = sigma^2 a (eta_i - eta_bar) and every eta_i has quadrature mass 1, so the
    # sigma-unit bond is orthogonal to each demand row up to rounding, whatever the noise
    kind, params, slope, bounds = ZERO_IMPACT_CASES[name]
    grid = build_state_grid(*bounds)
    if kind is None:  # rows of unequal mass: normalized_family gives each mass 1
        x = grid.nodes
        family = normalized_family(np.stack([np.exp(-np.abs(x - 1.0)), 1.0 + 0.5 * np.cos(x)]),
                                   grid)
    else:
        family = make_payoff_family(kind, params, grid)
    noise = NoiseProfile(sigma=1.0 + slope * (grid.nodes - grid.x_min))
    kern = build_canonical_kernel(family, noise, grid)
    w_star = equilibrium_demand(solve_alpha_star(family.I), kern, family, noise)
    v = zero_impact_direction(noise, grid)
    assert v.shape == (grid.n,)
    norms = np.sqrt(weighted_inner_product(w_star, w_star, noise, grid))
    assert np.all(np.abs(weighted_inner_product(v, w_star, noise, grid))
                  <= ORTHOGONALITY_TOLERANCE * norms)
    assert abs(weighted_inner_product(v, v, noise, grid) - 1.0) < 1e-12


def test_impact_term_vanishes_along_zero_impact_directions(
    mean_shift_demand, mean_shift_family, unit_noise, grid
):
    _, w_star = mean_shift_demand
    v = zero_impact_direction(unit_noise, grid)
    rep = foc_terms(v[None], w_star, mean_shift_family, 0, unit_noise, grid)[0]
    assert abs(rep.impact_term) < IMPACT_NULL_TOLERANCE


def test_direction_stack_equals_single_direction_calls(
    mean_shift_demand, mean_shift_family, unit_noise, grid
):
    # one call for all directions, bitwise the separate calls
    _, w_star = mean_shift_demand
    stack = np.stack([w_star[0], mean_shift_family.eta[0],
                      zero_impact_direction(unit_noise, grid)])
    args = (w_star, mean_shift_family, 0, unit_noise, grid)
    reports = foc_terms(stack, *args)
    assert isinstance(reports, list) and len(reports) == 3
    for v, rep in zip(stack, reports):
        assert rep == foc_terms(v[None], *args)[0]


def test_foc_terms_takes_all_direction_inner_products_in_one_call(
    mean_shift_demand, mean_shift_family, unit_noise, grid, monkeypatch
):
    # d = <v_k, w_star_i>_sigma for every direction and row comes from one stacked call
    _, w_star = mean_shift_demand
    stack = np.stack([w_star[0], mean_shift_family.eta[0], zero_impact_direction(unit_noise, grid)])
    calls = []

    def counted(f, g, noise, grid):
        calls.append((np.shape(f), np.shape(g)))
        return weighted_inner_product(f, g, noise, grid)

    monkeypatch.setattr(adkyle.objective, "weighted_inner_product", counted)
    foc_terms(stack, w_star, mean_shift_family, 0, unit_noise, grid)
    assert calls == [((3, 1, grid.n), (2, grid.n))]


@pytest.mark.parametrize("k", [1, 3])
def test_each_call_builds_two_windows(k, mean_shift_demand, mean_shift_family, unit_noise,
                                      grid, monkeypatch):
    # one r-line window for E[q | t] with E[C | t], one for all 4k finite-difference rows
    _, w_star = mean_shift_demand
    builds, real = [], adkyle.posterior._lines
    monkeypatch.setattr(adkyle.posterior, "_lines", lambda a: builds.append(a) or real(a))
    stack = np.stack([w_star[0], mean_shift_family.eta[0], np.ones(grid.n)])[:k]
    assert len(foc_terms(stack, w_star, mean_shift_family, 0, unit_noise, grid)) == k
    assert len(builds) == 2


def test_shift_past_the_spread_bound_is_rejected(
    mean_shift_demand, mean_shift_family, unit_noise, grid
):
    # eps scales with |W|_inf: at 1e6 W, eps * F (v h) spreads by ~900 over the signals, so
    # a side's pi . u could underflow and its price pi . (u eta) / (pi . u) would be garbage
    _, w_star = mean_shift_demand
    with pytest.raises(ValueError, match="finite-difference shift spread .* underflow"):
        foc_from_paths(
            1e6 * w_star[0], mean_shift_family.eta[0], w_star, mean_shift_family, 0,
            unit_noise, grid, n_paths=2000, seed=0,
        )


def test_a_shift_common_to_every_signal_moves_no_price(
    mean_shift_demand, mean_shift_family, unit_noise, grid
):
    # a common part 1e4 in the candidate schedules shifts every signal's log-likelihood by
    # ~950 along v = 1, past exp's range, and moves no posterior: each side keeps the base
    # price, and the unit payoff change less the unit price change leaves 0
    _, w_star = mean_shift_demand
    rep = foc_from_paths(
        10.0 * w_star[0], np.ones(grid.n), w_star + 1e4, mean_shift_family, 0,
        unit_noise, grid, n_paths=2000, seed=0,
    )
    assert abs(rep.fd_total) < 1e-9


def test_zero_demand_earns_zero(mean_shift_demand, mean_shift_family, unit_noise, grid):
    _, w_star = mean_shift_demand
    mean, std_err = expected_utility(
        np.zeros(grid.n), w_star, mean_shift_family, 0, unit_noise, grid,
        n_paths=2000, seed=1,
    )
    assert mean == 0.0
    assert std_err == 0.0


def test_equilibrium_demand_beats_nearby_deviations(
    mean_shift_demand, mean_shift_family, unit_noise, grid
):
    # common-shock comparison: scaling the demand schedule away from the
    # fixed point lowers expected profit
    _, w_star = mean_shift_demand
    base, _ = expected_utility(
        w_star[0], w_star, mean_shift_family, 0, unit_noise, grid,
        n_paths=20_000, seed=29,
    )
    for scale in (0.5, 1.6):
        bent, _ = expected_utility(
            scale * w_star[0], w_star, mean_shift_family, 0, unit_noise, grid,
            n_paths=20_000, seed=29,
        )
        assert bent < base


def test_shift_spread_does_not_move_with_the_noise_level(mean_shift_family, grid):
    # W scales with the noise and d = <v, W_i>_sigma against it, so with eps proportional
    # to |W|_inf the mean-logit shift eps * d of each direction is the same at every noise level
    spreads = []
    for level in (1.0, 1e-6):
        noise = NoiseProfile(sigma=np.full(grid.n, level))
        kern = build_canonical_kernel(mean_shift_family, noise, grid)
        w_star = equilibrium_demand(exact_binary_equilibrium(kern), kern, mean_shift_family,
                                    noise)
        stack = np.stack([w_star[0], mean_shift_family.eta[0],
                          zero_impact_direction(noise, grid)])
        reports = foc_terms(stack, w_star, mean_shift_family, 0, noise, grid)
        spreads.append([rep.fd_epsilon * np.ptp([weighted_inner_product(v, row, noise, grid)
                                                 for row in w_star])
                        for rep, v in zip(reports, stack)])
    np.testing.assert_allclose(spreads[1], spreads[0], rtol=1e-12, atol=1e-14)
    assert max(spreads[0]) < 1e-2


def test_zero_demand_row_is_rejected(mean_shift_demand, mean_shift_family, unit_noise, grid):
    # eps is relative to |W|_inf: a zero demand row leaves no step to take
    _, w_star = mean_shift_demand
    with pytest.raises(ValueError, match="adkyle.objective: demand row"):
        foc_terms(w_star[0][None], np.zeros_like(w_star), mean_shift_family, 0, unit_noise,
                  grid)


def test_direction_must_be_nonzero(mean_shift_demand, mean_shift_family, unit_noise, grid):
    _, w_star = mean_shift_demand
    with pytest.raises(ValueError, match="adkyle.objective"):
        foc_terms(np.zeros(grid.n)[None], w_star, mean_shift_family, 0, unit_noise, grid)
    # one zero row in a stack is rejected too
    with pytest.raises(ValueError, match="adkyle.objective"):
        foc_terms(np.stack([w_star[0], np.zeros(grid.n)]), w_star, mean_shift_family, 0,
                  unit_noise, grid)
    # and an empty stack holds no direction
    with pytest.raises(ValueError, match="adkyle.objective: directions"):
        foc_terms(np.zeros((0, grid.n)), w_star, mean_shift_family, 0, unit_noise, grid)


@pytest.mark.parametrize("true_index", [-1, 2])
def test_signal_index_out_of_range_is_rejected(true_index, mean_shift_demand, mean_shift_family,
                                               unit_noise, grid):
    # a negative index must not wrap to signal I - 1, nor a large one end in IndexError
    _, w_star = mean_shift_demand
    args = (w_star, mean_shift_family, true_index, unit_noise, grid)
    with pytest.raises(ValueError, match="adkyle.objective: true_index"):
        foc_terms(w_star[1][None], *args)


def _foc_from_full_paths(w_row, v, w_tilde, family, true_index, noise, grid, n_paths, seed):
    """Brute-force foc_from_paths: every term from full increments on the statistic's shocks.

    The finite difference re-filters each path with its drift shifted by
    +- eps * v, through log_likelihoods over all n-1 increments.
    """
    eps = FD_REL_EPS * np.max(np.abs(w_row)) / np.max(np.abs(v))
    gw, eta, eta_t = grid.quad_weights, family.eta, family.eta[true_index]
    shocks = statistic_shocks(w_tilde, noise, grid, seed, n_paths)
    inc = w_row[:-1] * grid.h + noise.sigma[:-1] * math.sqrt(grid.h) * shocks
    d = np.array([weighted_inner_product(v, row, noise, grid) for row in w_tilde])
    pi = posterior_weights(log_likelihoods(w_tilde, inc, noise, grid))
    price = pi @ eta
    ad = price @ (gw * v)
    impact = (pi @ (d[:, None] * eta) - price * (pi @ d)[:, None]) @ (gw * w_row)

    def profit(step):
        shifted = inc + step * v[:-1] * grid.h
        pi_s = posterior_weights(log_likelihoods(w_tilde, shifted, noise, grid))
        return (eta_t - pi_s @ eta) @ (gw * (w_row + step * v))

    fd = (profit(eps) - profit(-eps)) / (2.0 * eps)
    payoff = float((gw * v) @ eta_t)
    return {
        "payoff_term": payoff, "adverse_selection_term": ad.mean(),
        "impact_term": impact.mean(), "analytic_total": (payoff - ad - impact).mean(),
        "fd_total": fd.mean(), "std_err_fd": fd.std(ddof=1) / math.sqrt(n_paths),
    }


@pytest.mark.parametrize("means", [[-1.0, 1.0], [-1.5, -0.5, 0.5, 1.5]])
def test_projection_estimator_matches_full_path_reference(means, grid):
    # flow_posterior works on I projections per path; the full-increment
    # reference must agree to rounding, across three stream blocks and a partial one
    family = make_payoff_family("gaussian_mean_shift", {"means": means, "sd": 1.0}, grid)
    noise = NoiseProfile(sigma=1.0 + 0.05 * (grid.nodes - grid.x_min))
    w_star = candidate_demand(build_canonical_kernel(family, noise, grid), family, noise)
    w_star *= np.linspace(0.8, 1.2, family.I)[:, None]  # unequal norms: the Gram diagonal counts
    bump = 0.4 * np.exp(-0.5 * np.square(grid.nodes - 0.7))
    directions = np.stack([w_star[0], family.eta[0], bump])
    n_paths, seed = 3 * PATH_BLOCK_SIZE + 100, 31
    reports = foc_from_paths(w_star[0], directions, w_star, family, 0, noise, grid,
                             n_paths=n_paths, seed=seed)
    for v, rep in zip(directions, reports):
        ref = _foc_from_full_paths(w_star[0], v, w_star, family, 0, noise, grid, n_paths, seed)
        # the totals are differences of the three terms, so their rounding
        # scales with the largest term, not with the (small) total itself
        scale = max(abs(ref[k]) for k in ("payoff_term", "adverse_selection_term", "impact_term"))
        for name, value in ref.items():
            assert getattr(rep, name) == pytest.approx(value, rel=1e-10, abs=1e-10 * scale), name


@pytest.mark.parametrize("sds,slope", [(None, 0.0), ((1.0, 1.5), 0.3)])
def test_closed_form_terms_match_the_path_oracle(sds, slope, grid):
    # at an equilibrium demand the posterior has the canonical law, so the closed-form
    # adverse selection and impact are the means the path oracle estimates
    family = (make_payoff_family("gaussian_variance", {"mu": 0.0, "sds": list(sds)}, grid)
              if sds else make_payoff_family("gaussian_mean_shift",
                                             {"means": [-1.0, 1.0], "sd": 1.0}, grid))
    noise = NoiseProfile(sigma=1.0 + slope * (grid.nodes - grid.x_min))
    kern = build_canonical_kernel(family, noise, grid)
    w_star = equilibrium_demand(exact_binary_equilibrium(kern), kern, family, noise)
    stack = np.stack([w_star[0], family.eta[0], zero_impact_direction(noise, grid)])
    reports = foc_terms(stack, w_star, family, 0, noise, grid)
    paths = foc_from_paths(w_star[0], stack, w_star, family, 0, noise, grid, n_paths=100_000,
                           seed=41)
    for rep, ref in zip(reports, paths):
        # 3 SE, plus the quadrature's own error (residual_bound); along the zero-impact
        # direction eta @ v is constant over the signals, so the path SE is 0
        assert rep.payoff_term == ref.payoff_term
        assert abs(rep.adverse_selection_term - ref.adverse_selection_term) <= (
            3.0 * ref.std_err_ad + rep.residual_bound)
        assert abs(rep.impact_term - ref.impact_term) <= (
            3.0 * ref.std_err_impact + rep.residual_bound)
