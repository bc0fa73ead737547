"""Fixed point solve, demand assembly, and the single-asset benchmark."""

import dataclasses
import math
import warnings

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
import adkyle.equilibrium
from adkyle.equilibrium import BRACKET_CAP, phi_from_noise
from adkyle.kernel import RANK_TOL
from adkyle.posterior import MIN_MOMENT_SAMPLES, moment_noise, moments_from_noise
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
    assert phi_from_noise(10.0, moment_noise(2, 200_000, 0)) < 0.0


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


@pytest.mark.parametrize("I,true_index", [(2, 0), (2, 1), (8, 0), (8, 7)])
def test_scalar_residual_matches_the_full_softmax_moments(I, true_index):
    # rows of q sum to one, so (Q cbar Q)_tt = E[q_t (1 - q_t)]
    xi = standard_normal_matrix(5, 200_000, I)
    for alpha_bar in (0.0, 0.5, 1.4, 3.0):
        mom = moments_from_noise(alpha_bar, true_index, xi)
        full = 1.0 - float(mom.m1[true_index]) - alpha_bar**2 * mom.qcq_diag
        assert abs(phi_from_noise(alpha_bar, np.roll(xi, -true_index, axis=1)) - full) <= 1e-12


@pytest.mark.parametrize("I", [2, 8])
def test_phi_is_finite_without_warnings_at_the_bracket_cap(I):
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        assert math.isfinite(phi_from_noise(BRACKET_CAP, moment_noise(I, 200_000, 0)))


@pytest.mark.parametrize("I", [2, 4, 6, 8])
def test_solver_evaluation_budget_and_trace(I, monkeypatch):
    calls = []
    real = adkyle.equilibrium.phi_from_noise
    monkeypatch.setattr(
        adkyle.equilibrium, "phi_from_noise", lambda *a, **k: calls.append(a[0]) or real(*a, **k)
    )
    eq = solve_alpha_star(identity_kernel(I), n_samples=200_000, seed=0)
    meta = eq.mc_meta
    n_evals = 1 + meta["n_doublings"] + meta["n_bisections"]
    assert n_evals == len(calls) <= 12
    trace = meta["trace"]
    assert [a for a, _, _ in trace] == calls
    assert [stage for _, _, stage in trace] == (
        ["bracket"] * (1 + meta["n_doublings"]) + ["refine"] * meta["n_bisections"]
    )
    # the root is an evaluated point, so its residual is exact
    assert (eq.alpha_star, eq.phi_residual) in [(a, f) for a, f, _ in trace]


def test_alpha_std_err_is_calibrated_and_shrinks_with_samples():
    kern = identity_kernel(2)
    small = [solve_alpha_star(kern, n_samples=20_000, seed=seed) for seed in range(16)]
    large = solve_alpha_star(kern, n_samples=200_000, seed=0)
    for eq in (*small, large):
        assert math.isfinite(eq.alpha_std_err) and eq.alpha_std_err > 0.0
    # ten times the samples: sqrt(10) ~ 3.16 times smaller
    assert 2.5 < small[0].alpha_std_err / large.alpha_std_err < 4.0
    # the reported error matches the seed-to-seed spread of the root
    spread = np.std([eq.alpha_star for eq in small], ddof=1)
    assert 0.5 < spread / np.mean([eq.alpha_std_err for eq in small]) < 2.0


@pytest.mark.parametrize("c", [0.0, RANK_TOL])
def test_solver_rejects_a_degenerate_kernel(c):
    # exchangeable, but c at or below the rank cutoff carries no signal
    kern = dataclasses.replace(identity_kernel(2), c=c)
    assert kern.exchangeable
    with pytest.raises(ValueError, match="adkyle.equilibrium: degenerate kernel"):
        solve_alpha_star(kern, n_samples=MIN_MOMENT_SAMPLES, seed=0)


def test_solver_rejects_too_few_samples():
    with pytest.raises(ValueError, match="adkyle.posterior: n_samples"):
        solve_alpha_star(identity_kernel(2), n_samples=MIN_MOMENT_SAMPLES - 1, seed=0)


@pytest.mark.parametrize("width_tol", [1e-308, 5e-324])
def test_unreachable_width_tol_ends_in_a_value_error(width_tol, monkeypatch):
    # no bracket is that narrow; the solve fails once bracketed, before any refinement
    import adkyle.equilibrium

    evaluated = []
    real = adkyle.equilibrium.phi_from_noise
    monkeypatch.setattr(adkyle.equilibrium, "phi_from_noise",
                        lambda a, *rest: evaluated.append(a) or real(a, *rest))
    with pytest.raises(ValueError, match="adkyle.equilibrium: root refinement"):
        solve_alpha_star(identity_kernel(2), n_samples=MIN_MOMENT_SAMPLES, seed=0,
                         width_tol=width_tol)
    assert evaluated == [1.0, 2.0]  # the doubling bracket around sqrt(2) only
