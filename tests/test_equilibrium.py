"""Fixed point solve, the quadrature residual, demand assembly, and the single-asset benchmark."""

import csv
import dataclasses
import math
import warnings

import numpy as np
import pytest

from adkyle import (
    build_canonical_kernel,
    centering_matrix,
    equilibrium_demand,
    foc_terms,
    kyle_single_asset,
    normalized_family,
    posterior_moments,
    solve_alpha_star,
    true_belief_moments,
    weighted_inner_product,
    zero_impact_direction,
)
import adkyle.equilibrium
import adkyle.posterior
from adkyle.cli import _solved, main
from adkyle.config import config_model, parse_config_text
from adkyle.equilibrium import BRACKET_CAP, WIDTH_TOL
from adkyle.kernel import RANK_TOL
from adkyle.posterior import QUAD_TOL
from adkyle._rng import standard_normal_matrix
from conftest import (ALPHA_STAR_BINARY, MC_BLOCK_ROWS, binary_moments_quadrature,
                      moments_from_noise, sample_posterior, true_belief)

# two quotients each round once, so the product can sit one ulp off 1/2
PRODUCT_ULPS = 2.0 * np.spacing(0.5)
GRAM_TOLERANCE = 1e-12
SIGMAS = 3.0
# a finer and wider rule than the library's: the reference for its quadrature error
REFERENCE_RULE = {"LOG_SIGMA_STEP": 0.1, "MAX_LOG_SIGMA_POINTS": 4000,
                  "NORMAL_STEP": 0.2, "NORMAL_RANGE": 9.5}


def quadrature_phi(alpha_bar, I):
    not_true, spread = true_belief_moments(alpha_bar, I)
    return not_true - alpha_bar * alpha_bar * spread


def rival_square(alpha_bar, I):
    """E[q_j^2] for a rival j, read off E[C | t = 0] by C_jj = E[q_j] - E[q_j^2]."""
    mean, cov = posterior_moments(alpha_bar, I, 0)
    e_j = np.eye(I)[1]
    return mean[1] - cov(e_j, e_j)


def mc_phi(alpha_bar, noise):
    """Monte Carlo Phi and its standard error on a frozen noise matrix, truth in column 0."""
    q = true_belief(alpha_bar, noise)
    draws = (1.0 - q) * (1.0 - alpha_bar * alpha_bar * q)
    return float(draws.mean()), float(draws.std(ddof=1) / math.sqrt(draws.size))


def use_reference_rule(monkeypatch):
    for name, value in REFERENCE_RULE.items():
        monkeypatch.setattr(adkyle.posterior, name, value)


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
    # with no information the posterior is uniform, so phi(0) = 1 - 1/I
    for I in (2, 3, 4, 8, 64):
        assert abs(quadrature_phi(0.0, I) - (1.0 - 1.0 / I)) <= 1e-14


def test_phi_is_negative_past_the_root():
    assert quadrature_phi(10.0, 2) < 0.0


@pytest.mark.parametrize("I", [2, 3, 8, 64])
def test_quadrature_is_within_its_tolerance_of_a_finer_rule(I, monkeypatch):
    alphas = np.linspace(0.0, 4.0, 41)
    coarse = np.array([(*true_belief_moments(a, I), rival_square(a, I)) for a in alphas])
    use_reference_rule(monkeypatch)
    fine = np.array([(*true_belief_moments(a, I), rival_square(a, I)) for a in alphas])
    assert np.abs(coarse - fine).max() <= QUAD_TOL
    phi = coarse[:, 0] - alphas**2 * coarse[:, 1]
    assert np.abs(phi - (fine[:, 0] - alphas**2 * fine[:, 1])).max() <= QUAD_TOL


def test_binary_quadrature_agrees_with_the_sigmoid_closed_form():
    # at I = 2, E[q_t] and E[q_t (1 - q_t)] are one-dimensional sigmoid integrals
    for alpha_bar in np.linspace(0.0, 2.0, 21):
        not_true, spread = true_belief_moments(alpha_bar, 2)
        phi1, phi2 = binary_moments_quadrature(alpha_bar)
        assert abs((1.0 - not_true) - phi1) <= 1e-10
        assert abs(spread - phi2) <= 1e-10


@pytest.mark.parametrize("I,true_index", [(2, 0), (2, 1), (4, 2), (8, 0), (8, 7)])
def test_scalar_residual_matches_the_full_softmax_moments(I, true_index):
    # rows of q sum to one, so (Q cbar Q)_tt = E[q_t (1 - q_t)]: the full softmax
    # moments give Phi per draw, and the quadrature lies within 3 SE of their mean;
    # the rivals are exchangeable, so each holds E[1 - q_t] / (I - 1) of the mass
    xi = standard_normal_matrix(5, 200_000, I, MC_BLOCK_ROWS)
    for alpha_bar in (0.5, 1.0, 1.4, 2.0, 3.0):
        m1, qcq_diag, std_err_m1 = moments_from_noise(alpha_bar, true_index, xi)
        full = 1.0 - float(m1[true_index]) - alpha_bar**2 * qcq_diag
        q = sample_posterior(alpha_bar, I, true_index, xi)[1][:, true_index]
        draws = (1.0 - q) * (1.0 - alpha_bar**2 * q)
        assert abs(draws.mean() - full) <= 1e-12
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(quadrature_phi(alpha_bar, I) - full) <= SIGMAS * se
        not_true, _ = true_belief_moments(alpha_bar, I)
        ie_gap = abs((1.0 - not_true) - m1[true_index])
        assert ie_gap <= SIGMAS * std_err_m1[true_index]
        rival_gap = np.abs(np.delete(m1 - not_true / (I - 1), true_index))
        assert np.all(rival_gap <= SIGMAS * np.delete(std_err_m1, true_index))


@pytest.mark.parametrize("I", [4, 6, 8])
def test_monte_carlo_root_agrees_with_the_quadrature_root(I):
    # bisect the Monte Carlo Phi on one frozen noise matrix (common random numbers)
    noise = standard_normal_matrix(I, 200_000, I, MC_BLOCK_ROWS)
    lo, hi = 1.0, 2.5
    assert mc_phi(lo, noise)[0] > 0.0 > mc_phi(hi, noise)[0]
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mc_phi(mid, noise)[0] > 0.0 else (lo, mid)
    root = 0.5 * (lo + hi)
    eq = solve_alpha_star(I)
    slope = (quadrature_phi(root + 1e-4, I) - quadrature_phi(root - 1e-4, I)) / 2e-4
    root_se = mc_phi(root, noise)[1] / abs(slope)
    assert abs(root - eq.alpha_star) <= SIGMAS * root_se


@pytest.mark.parametrize("I", [2, 8, 64])
def test_phi_is_finite_without_warnings_at_the_bracket_cap(I):
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        for alpha_bar in (8.0, 16.0, 64.0, 1024.0, BRACKET_CAP):
            phi = quadrature_phi(alpha_bar, I)
            assert math.isfinite(phi) and phi <= 0.0


def test_moments_reject_bad_arguments():
    with pytest.raises(ValueError, match="adkyle.posterior: need at least two"):
        true_belief_moments(1.0, 1)
    # past 3.8e16 the rounding of alpha^2 swallows the quadrature window (NaN from ~1.44e17)
    for alpha_bar in (-0.5, 1e17, 1e100, 1e200, math.inf, math.nan):
        with pytest.raises(ValueError, match="adkyle.posterior: alpha_bar"):
            true_belief_moments(alpha_bar, 2)


def test_solver_convergence_metadata(solved_mean_shift):
    eq = solved_mean_shift
    assert abs(eq.phi_residual) < 1e-4
    meta = eq.mc_meta
    assert set(meta) == {"bracket_hi", "n_doublings", "n_bisections", "trace"}
    assert meta["n_bisections"] <= 200
    assert meta["bracket_hi"] >= eq.alpha_star


def test_solver_finds_the_binary_root(solved_mean_shift):
    gap = abs(solved_mean_shift.alpha_star - ALPHA_STAR_BINARY)
    assert gap <= WIDTH_TOL
    assert solved_mean_shift.alpha_std_err >= gap


@pytest.mark.parametrize("I", [2, 4, 6, 8])
def test_error_bounds_cover_a_tighter_reference_solve(I, monkeypatch):
    eq = solve_alpha_star(I)
    assert 0.0 < eq.alpha_std_err <= 2.0 * WIDTH_TOL
    use_reference_rule(monkeypatch)
    monkeypatch.setattr(adkyle.equilibrium, "WIDTH_TOL", 1e-12)
    ref = solve_alpha_star(I)
    assert abs(eq.alpha_star - ref.alpha_star) <= eq.alpha_std_err
    assert abs(eq.ie - ref.ie) <= eq.ie_std_err


@pytest.mark.parametrize("I", [2, 3, 4, 6, 8, 64])
def test_alpha_std_err_takes_phi_slope_from_a_bracket_above_rounding(I, monkeypatch):
    # at width 1e-12 the final bracket is a few ulps wide (at I = 6 a one-ulp exact zero),
    # and its secant is rounding: the bound read 35-50% under QUAD_TOL / |Phi'| at I = 3, 6, 8
    use_reference_rule(monkeypatch)
    monkeypatch.setattr(adkyle.equilibrium, "WIDTH_TOL", 1e-12)
    eq = solve_alpha_star(I)
    a, h = eq.alpha_star, 1e-5
    slope = (quadrature_phi(a + h, I) - quadrature_phi(a - h, I)) / (2.0 * h)
    assert eq.alpha_std_err >= QUAD_TOL / abs(slope)


def test_alpha_raw_rescales_by_kernel_scale(tmp_path):
    # solve writes the root in original units, alpha_star / sqrt(c), with the
    # c of the kernel its config builds; noise 3 makes c differ from 1
    cfg_text = "grid.n = 201\nmc.seed = 3\nnoise.level = 3\n"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text)
    assert main(["solve", "-c", str(cfg_path), "-o", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "equilibrium.csv", newline="") as fh:
        rows = dict(list(csv.reader(fh))[1:])
    cfg = parse_config_text(cfg_text)
    grid, noise, family = config_model(cfg)
    kern = build_canonical_kernel(family, noise, grid)
    assert kern.c != 1.0
    assert float(rows["c"]) == kern.c
    assert float(rows["alpha_raw"]) == float(rows["alpha_star"]) / math.sqrt(kern.c)


def test_root_is_kernel_independent_for_exchangeable_kernels(solved_mean_shift):
    # the canonical fixed point depends only on I, so a fresh solve repeats its bits
    assert solve_alpha_star(2).alpha_star == solved_mean_shift.alpha_star


def test_demand_gram_recovers_scaled_centering(
    mean_shift_demand, mean_shift_kernel, unit_noise, grid
):
    eq, w_star = mean_shift_demand
    I = w_star.shape[0]
    gram = np.array(
        [
            [weighted_inner_product(w_star[i], w_star[j], unit_noise, grid) for j in range(I)]
            for i in range(I)
        ]
    )
    target = eq.alpha_star**2 * centering_matrix(I)
    assert np.abs(gram - target).max() < GRAM_TOLERANCE


def test_demand_rows_sum_to_zero(mean_shift_demand):
    _, w_star = mean_shift_demand
    assert np.abs(w_star.sum(axis=0)).max() < 1e-13


def test_demand_shapes(mean_shift_demand, grid):
    _, w_star = mean_shift_demand
    assert w_star.shape == (2, grid.n)


BEST_RESPONSE_TOL = 1e-10
BEST_RESPONSE_CONFIGS = {
    "variance": "family.kind = gaussian_variance\nfamily.sds = 1, 1.5\n",
    "sloped_mean_shift": "noise.slope = 1\n",
    "sloped_variance": "family.kind = gaussian_variance\nnoise.slope = 0.3\n",
    "sloped_skew": "family.kind = skew_normal\nfamily.shapes = 4, -4\nnoise.slope = 0.05\n",
}


@pytest.mark.parametrize("name", BEST_RESPONSE_CONFIGS)
def test_demand_is_the_insiders_best_response(name):
    # E[payoff - adverse selection - impact | t = 0] in closed form: the canonical law at
    # alpha_star gives E[q | t] (true_belief_moments) and E[C | t] (posterior_moments).
    # The first-order condition must hold in every direction, not only along the demand;
    # unequal Gram row sums and sloped noise are where W must scale with sigma^2
    cfg = parse_config_text("mc.seed = 7\ngrid.n = 401\n" + BEST_RESPONSE_CONFIGS[name])
    grid, noise, family, _, eq, w_star = _solved(cfg)
    not_true, _ = true_belief_moments(eq.alpha_star, family.I)
    belief = np.array([1.0 - not_true] + [not_true / (family.I - 1)] * (family.I - 1))
    _, cov = posterior_moments(eq.alpha_star, family.I, 0)
    eta_w = family.eta @ (grid.quad_weights * w_star[0])
    for v in (family.eta[0], zero_impact_direction(noise, grid)):
        trade_v = grid.quad_weights * v
        d = np.array([weighted_inner_product(v, row, noise, grid) for row in w_star])
        residual = trade_v @ family.eta[0] - belief @ (family.eta @ trade_v) - cov(eta_w, d)
        assert abs(residual) <= BEST_RESPONSE_TOL


# exchangeable only to ~1e-7 (5.6e-8 of c'), so its residuals read ~1e-8, past BEST_RESPONSE_TOL
FOC_BOUND_CONFIGS = {
    **{name: "grid.n = 401\n" + text for name, text in BEST_RESPONSE_CONFIGS.items()},
    "I4_mean_shift": "grid.n = 401\nfamily.means = -4.2, -1.4, 1.4, 4.2\nfamily.sd = 0.35\n",
    "I16_mean_shift": ("grid.x_min = -25.4\ngrid.x_max = 25.4\ngrid.n = 339\nfamily.means = "
                       + ", ".join(f"{2.8 * (k - 7.5):.1f}" for k in range(16))
                       + "\nfamily.sd = 0.35\n"),
}


@pytest.mark.parametrize("name", FOC_BOUND_CONFIGS)
def test_foc_terms_residual_and_richardson_fd_meet_their_bounds(name):
    # foc_terms' closed form is the residual above, and its Richardson difference of J,
    # a quadrature at the shifted mean logits, meets fd_bound; both bounds carry the
    # I = 4 and I = 16 mean shifts' Gram gaps
    cfg = parse_config_text("mc.seed = 7\n" + FOC_BOUND_CONFIGS[name])
    grid, noise, family, _, eq, w_star = _solved(cfg)
    stack = np.stack([w_star[0], family.eta[0], zero_impact_direction(noise, grid)])
    for rep in foc_terms(stack, w_star, family, 0, noise, grid, phi_residual=eq.phi_residual):
        assert abs(rep.analytic_total) <= rep.residual_bound
        assert abs(rep.diff) <= rep.fd_bound


def test_solver_rejects_non_exchangeable_kernels(grid, unit_noise):
    rows = np.vstack(
        [
            np.exp(-0.5 * np.square(grid.nodes + 2.0)),
            np.exp(-0.5 * np.square(grid.nodes)),
            np.exp(-0.5 * np.square((grid.nodes - 2.0) / 0.4)),
        ]
    )
    fam = normalized_family(rows, grid)
    kern = build_canonical_kernel(fam, unit_noise, grid)
    with pytest.raises(ValueError, match="adkyle.equilibrium: kernel is not exchangeable"):
        equilibrium_demand(solve_alpha_star(kern.I), kern, fam, unit_noise)


@pytest.mark.parametrize("I", [2, 3, 8, 64, 128, 4096, 2**20])
def test_width_alone_stops_the_solve(I):
    # the final bracket is the last evaluated point on each side of the root; once it is
    # narrower than WIDTH_TOL, |Phi| at the root is already far below 1e-4
    eq = solve_alpha_star(I)
    trace = eq.mc_meta["trace"]
    lo = max([0.0] + [a for a, f, _ in trace if f >= 0.0])
    hi = min(a for a, f, _ in trace if f < 0.0)
    assert lo <= eq.alpha_star <= hi == eq.mc_meta["bracket_hi"]
    assert 0.0 < hi - lo < WIDTH_TOL
    assert abs(eq.phi_residual) < 1e-4


@pytest.mark.parametrize("width_tol", [1e-10, 1e-12])
@pytest.mark.parametrize("rule", ["library", "reference"])
def test_the_solve_evaluates_no_point_twice(rule, width_tol, monkeypatch):
    # at I = 8 and these widths the library rule's Phi is exactly 0.0 at a step, and the
    # reference rule's regula-falsi steps round onto a bracket end; each used to evaluate
    # one alpha_bar again and again, up to 29 of 43 evaluations
    if rule == "reference":
        use_reference_rule(monkeypatch)
    monkeypatch.setattr(adkyle.equilibrium, "WIDTH_TOL", width_tol)
    meta = solve_alpha_star(8).mc_meta
    alphas = [a for a, _, _ in meta["trace"]]
    assert len(set(alphas)) == len(alphas) == 1 + meta["n_doublings"] + meta["n_bisections"]


def test_an_exact_zero_of_phi_ends_the_solve(monkeypatch):
    # the root is then that point, and its bound drops the bracket width (8.8e-9 here) but
    # still covers the root of the finer reference rule
    monkeypatch.setattr(adkyle.equilibrium, "WIDTH_TOL", 1e-12)
    eq = solve_alpha_star(8)
    assert eq.mc_meta["trace"][-1][:2] == (eq.alpha_star, 0.0) and eq.phi_residual == 0.0
    assert eq.alpha_std_err < 1e-11
    use_reference_rule(monkeypatch)
    ref = solve_alpha_star(8)
    assert abs(eq.alpha_star - ref.alpha_star) <= eq.alpha_std_err
    assert abs(eq.ie - ref.ie) <= eq.ie_std_err


@pytest.mark.parametrize("I", [2, 4, 6, 8, 64])
def test_solver_evaluation_budget_and_trace(I, monkeypatch):
    calls = []
    real = adkyle.equilibrium.true_belief_moments
    monkeypatch.setattr(
        adkyle.equilibrium, "true_belief_moments",
        lambda *a, **k: calls.append(a[0]) or real(*a, **k),
    )
    eq = solve_alpha_star(I)
    meta = eq.mc_meta
    n_evals = 1 + meta["n_doublings"] + meta["n_bisections"]
    assert n_evals == len(calls) <= 12
    trace = meta["trace"]
    assert [a for a, _, _ in trace] == calls
    assert [stage for _, _, stage in trace] == (
        ["bracket"] * (1 + meta["n_doublings"]) + ["refine"] * meta["n_bisections"]
    )
    # the root is an evaluated point, so its residual and ie are that evaluation's
    assert (eq.alpha_star, eq.phi_residual) in [(a, f) for a, f, _ in trace]
    assert eq.ie == 1.0 - real(eq.alpha_star, I)[0]


@pytest.mark.parametrize("cutoff", [0.0, RANK_TOL])
def test_solver_rejects_a_degenerate_kernel(cutoff, mean_shift_kernel, mean_shift_family,
                                            unit_noise):
    # exchangeable, but c at or below the rank cutoff, relative to the largest
    # diagonal entry of K, carries no signal
    kern = dataclasses.replace(mean_shift_kernel,
                               c=cutoff * float(np.max(np.diag(mean_shift_kernel.K))))
    assert kern.exchangeable
    with pytest.raises(ValueError, match="adkyle.equilibrium: degenerate kernel"):
        equilibrium_demand(solve_alpha_star(kern.I), kern, mean_shift_family, unit_noise)


@pytest.mark.parametrize("I", [0, 1])
def test_solver_needs_two_signals(I, monkeypatch):
    evaluated = []
    monkeypatch.setattr(adkyle.equilibrium, "true_belief_moments",
                        lambda *args: evaluated.append(args))
    with pytest.raises(ValueError, match="adkyle.equilibrium: need at least two signals"):
        solve_alpha_star(I)
    assert evaluated == []
