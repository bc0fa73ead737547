"""Expected-utility decomposition, first-order checks, and impact-free directions."""

import numpy as np
import pytest

from adkyle import (
    expected_utility,
    foc_terms,
    weighted_inner_product,
    zero_impact_basis,
)
from adkyle.orderflow import PATH_BLOCK_SIZE

CLOSURE_SIGMAS = 3.0
ORTHOGONALITY_TOLERANCE = 1e-10
IMPACT_NULL_TOLERANCE = 1e-12
FOC_PATHS = 5000


def test_report_decomposition_is_internally_consistent(
    mean_shift_demand, mean_shift_family, unit_noise, grid
):
    _, _, w_star = mean_shift_demand
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
    _, _, w_star = mean_shift_demand
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
    _, _, w_star = mean_shift_demand
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
    _, _, w_star = mean_shift_demand
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
    _, _, w_star = mean_shift_demand
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
    _, _, w_star = mean_shift_demand
    basis = zero_impact_basis(w_star, unit_noise, grid)
    stack = np.stack([w_star[0], mean_shift_family.eta[0], basis[0]])
    args = (w_star, mean_shift_family, 0, unit_noise, grid)
    reports = foc_terms(w_star[0], stack, *args, n_paths=2 * PATH_BLOCK_SIZE + 100, seed=23)
    assert isinstance(reports, list) and len(reports) == 3
    for v, rep in zip(stack, reports):
        assert rep == foc_terms(w_star[0], v, *args, n_paths=2 * PATH_BLOCK_SIZE + 100, seed=23)


def test_zero_demand_earns_zero(mean_shift_demand, mean_shift_family, unit_noise, grid):
    _, _, w_star = mean_shift_demand
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
    _, _, w_star = mean_shift_demand
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


def test_direction_must_be_nonzero(mean_shift_demand, mean_shift_family, unit_noise, grid):
    _, _, w_star = mean_shift_demand
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
