"""Expected-utility decomposition, first-order checks, and impact-free directions."""

import math
import sys

import numpy as np
import pytest

from adkyle import (
    NoiseProfile,
    build_canonical_kernel,
    equilibrium_demand,
    expected_utility,
    foc_terms,
    log_likelihoods,
    make_payoff_family,
    posterior_weights,
    weighted_inner_product,
    zero_impact_basis,
)
from adkyle.objective import FD_REL_EPS
from adkyle.orderflow import PATH_BLOCK_SIZE, likelihood_weights
from conftest import candidate_demand, exact_binary_equilibrium, statistic_shocks

CLOSURE_SIGMAS = 3.0
ORTHOGONALITY_TOLERANCE = 1e-10
IMPACT_NULL_TOLERANCE = 1e-12
FOC_PATHS = 5000


def test_report_decomposition_is_internally_consistent(
    mean_shift_demand, mean_shift_family, unit_noise, grid
):
    _, w_star = mean_shift_demand
    v = mean_shift_family.eta[0] - mean_shift_family.eta.mean(axis=0)
    rep = foc_terms(
        w_star[0], v, w_star, mean_shift_family, 0, unit_noise, grid,
        n_paths=FOC_PATHS, seed=17,
    )
    assert rep.analytic_total == pytest.approx(
        rep.payoff_term - rep.adverse_selection_term - rep.impact_term, abs=1e-12
    )
    assert rep.diff == pytest.approx(rep.analytic_total - rep.fd_total, abs=1e-12)
    assert rep.n_paths == FOC_PATHS
    assert rep.fd_epsilon > 0.0


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
        rep = foc_terms(
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
        rep = foc_terms(
            w_star[0], v, w_star, mean_shift_family, 0, unit_noise, grid,
            n_paths=20_000, seed=7,
        )
        assert abs(rep.fd_total) <= 4.0 * rep.std_err_fd


def test_zero_impact_basis_is_orthonormal_and_orthogonal(
    mean_shift_demand, unit_noise, grid
):
    _, w_star = mean_shift_demand
    basis = zero_impact_basis(w_star, unit_noise, grid)
    assert basis.shape[0] >= 1
    for b in basis:
        for w in w_star:
            assert abs(weighted_inner_product(b, w, unit_noise, grid)) < (
                ORTHOGONALITY_TOLERANCE
            )
    gram = np.array(
        [
            [weighted_inner_product(a, b, unit_noise, grid) for b in basis]
            for a in basis
        ]
    )
    assert np.abs(gram - np.eye(len(basis))).max() < 1e-12


def test_impact_term_vanishes_along_zero_impact_directions(
    mean_shift_demand, mean_shift_family, unit_noise, grid
):
    _, w_star = mean_shift_demand
    basis = zero_impact_basis(w_star, unit_noise, grid)
    rep = foc_terms(
        w_star[0], basis[0], w_star, mean_shift_family, 0, unit_noise, grid,
        n_paths=2000, seed=11,
    )
    assert abs(rep.impact_term) < IMPACT_NULL_TOLERANCE


def test_direction_stack_equals_single_direction_calls(
    mean_shift_demand, mean_shift_family, unit_noise, grid
):
    # one pass over the shocks for all directions, bitwise the separate calls
    _, w_star = mean_shift_demand
    basis = zero_impact_basis(w_star, unit_noise, grid)
    stack = np.stack([w_star[0], mean_shift_family.eta[0], basis[0]])
    args = (w_star, mean_shift_family, 0, unit_noise, grid)
    reports = foc_terms(w_star[0], stack, *args, n_paths=2 * PATH_BLOCK_SIZE + 100, seed=23)
    assert isinstance(reports, list) and len(reports) == 3
    for v, rep in zip(stack, reports):
        assert rep == foc_terms(w_star[0], v, *args, n_paths=2 * PATH_BLOCK_SIZE + 100, seed=23)


def test_shift_past_the_spread_bound_is_rejected(
    mean_shift_demand, mean_shift_family, unit_noise, grid
):
    # eps scales with |W|_inf: at 1e6 W, eps * F (v h) spreads by ~900 over the signals, so
    # a side's pi . u could underflow and its price pi . (u eta) / (pi . u) would be garbage
    _, w_star = mean_shift_demand
    with pytest.raises(ValueError, match="finite-difference shift spread .* underflow"):
        foc_terms(
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
    rep = foc_terms(
        10.0 * w_star[0], np.ones(grid.n), w_star + 1e4, mean_shift_family, 0,
        unit_noise, grid, n_paths=2000, seed=0,
    )
    assert abs(rep.fd_total) < 1e-9


def test_each_call_takes_one_softmax(
    mean_shift_demand, mean_shift_family, unit_noise, grid, monkeypatch
):
    # one (n_paths, I) base posterior per call, across every Philox block of the statistic
    # and whatever the number of directions: the +-eps posteriors reweight it
    import adkyle.orderflow

    shapes, real = [], adkyle.orderflow.posterior_weights

    def counted(log_lik):
        shapes.append(np.shape(log_lik))
        return real(log_lik)

    for name, module in list(sys.modules.items()):
        if name.startswith("adkyle") and getattr(module, "posterior_weights", None) is real:
            monkeypatch.setattr(module, "posterior_weights", counted)
    _, w_star = mean_shift_demand
    basis = zero_impact_basis(w_star, unit_noise, grid)
    stack = np.stack([w_star[0], mean_shift_family.eta[0], basis[0]])
    args = (w_star, mean_shift_family, 0, unit_noise, grid)
    n_paths = 2 * PATH_BLOCK_SIZE + 100
    foc_terms(w_star[0], stack, *args, n_paths=n_paths, seed=23)
    assert shapes == [(n_paths, 2)]
    shapes.clear()
    expected_utility(w_star[0], *args, n_paths=n_paths, seed=23)
    assert shapes == [(n_paths, 2)]


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
    # W scales with the noise and F = W_tilde / sigma^2 against it, so with eps proportional
    # to |W|_inf the shift eps * F (v h) of each direction is the same at every noise level
    spreads = []
    for level in (1.0, 1e-6):
        noise = NoiseProfile(sigma=np.full(grid.n, level))
        kern = build_canonical_kernel(mean_shift_family, noise, grid)
        w_star = equilibrium_demand(exact_binary_equilibrium(kern), kern, mean_shift_family,
                                    noise)
        stack = np.stack([w_star[0], mean_shift_family.eta[0],
                          zero_impact_basis(w_star, noise, grid)[0]])
        reports = foc_terms(w_star[0], stack, w_star, mean_shift_family, 0, noise, grid,
                            n_paths=10, seed=0)
        f, _ = likelihood_weights(w_star, noise, grid)
        spreads.append([rep.fd_epsilon * np.ptp(f @ (v[:-1] * grid.h))
                        for rep, v in zip(reports, stack)])
    np.testing.assert_allclose(spreads[1], spreads[0], rtol=1e-12, atol=1e-14)
    assert max(spreads[0]) < 1e-2


def test_zero_demand_row_is_rejected(mean_shift_demand, mean_shift_family, unit_noise, grid):
    # eps is relative to |W|_inf: a zero demand row leaves no step to take
    _, w_star = mean_shift_demand
    with pytest.raises(ValueError, match="adkyle.objective: demand w_row"):
        foc_terms(np.zeros(grid.n), w_star[0], w_star, mean_shift_family, 0, unit_noise, grid,
                  n_paths=100, seed=0)


def test_direction_must_be_nonzero(mean_shift_demand, mean_shift_family, unit_noise, grid):
    _, w_star = mean_shift_demand
    with pytest.raises(ValueError, match="adkyle.objective"):
        foc_terms(
            w_star[0], np.zeros(grid.n), w_star, mean_shift_family, 0,
            unit_noise, grid, n_paths=2000, seed=0,
        )
    # one zero row in a stack is rejected too
    with pytest.raises(ValueError, match="adkyle.objective"):
        foc_terms(
            w_star[0], np.stack([w_star[0], np.zeros(grid.n)]), w_star, mean_shift_family, 0,
            unit_noise, grid, n_paths=2000, seed=0,
        )


@pytest.mark.parametrize("true_index", [-1, 2])
def test_signal_index_out_of_range_is_rejected(true_index, mean_shift_demand, mean_shift_family,
                                               unit_noise, grid):
    # a negative index must not wrap to signal I - 1, nor a large one end in IndexError
    _, w_star = mean_shift_demand
    args = (w_star, mean_shift_family, true_index, unit_noise, grid)
    with pytest.raises(ValueError, match="adkyle.objective: true_index"):
        foc_terms(w_star[0], w_star[1], *args, n_paths=100, seed=0)
    with pytest.raises(ValueError, match="adkyle.objective: true_index"):
        expected_utility(w_star[0], *args, n_paths=100, seed=0)


def _foc_from_full_paths(w_row, v, w_tilde, family, true_index, noise, grid, n_paths, seed):
    """Brute-force foc_terms: every term from full increments on the statistic's shocks.

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
    reports = foc_terms(w_star[0], directions, w_star, family, 0, noise, grid,
                        n_paths=n_paths, seed=seed)
    for v, rep in zip(directions, reports):
        ref = _foc_from_full_paths(w_star[0], v, w_star, family, 0, noise, grid, n_paths, seed)
        # the totals are differences of the three terms, so their rounding
        # scales with the largest term, not with the (small) total itself
        scale = max(abs(ref[k]) for k in ("payoff_term", "adverse_selection_term", "impact_term"))
        for name, value in ref.items():
            assert getattr(rep, name) == pytest.approx(value, rel=1e-10, abs=1e-10 * scale), name


@pytest.mark.parametrize("n_paths", [0, -3])
def test_non_positive_path_count_is_rejected(n_paths, mean_shift_demand, mean_shift_family,
                                             unit_noise, grid):
    # the order-flow check comes before any array is sized by n_paths
    _, w_star = mean_shift_demand
    args = (w_star, mean_shift_family, 0, unit_noise, grid)
    with pytest.raises(ValueError, match="adkyle.orderflow: n_paths must be positive"):
        foc_terms(w_star[0], w_star[1], *args, n_paths=n_paths, seed=0)
    with pytest.raises(ValueError, match="adkyle.orderflow: n_paths must be positive"):
        expected_utility(w_star[0], *args, n_paths=n_paths, seed=0)
