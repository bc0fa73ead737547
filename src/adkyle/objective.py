"""Insider objective, first-order conditions, and zero-impact directions.

The insider with signal s_t trading schedule W earns

    J(W) = E[ int W(x) (eta(x, s_t) - P(x)) dx ],

where P is the market maker's posterior-mean price curve.  Perturbing W by
eps * v moves J through three channels: the direct payoff int v eta dx, the
price paid int v P dx, and the price pressure of v on P via the likelihoods.
foc_terms reports all three next to a central finite difference computed on
the same shocks, so the comparison is exact up to discretization and O(eps^2)
curvature rather than Monte Carlo noise.  Given a stack of directions it
draws the order-flow statistic once for all of them (common random numbers
across directions as well as across the two sides of the difference).

Every term works on I numbers per path: a trade's price is pi @ (eta @ trade),
and the drift shift eps * v adds the same I-vector s = eps * F @ (v h) to every
path's log-likelihoods, so its posterior is pi e^s / (pi . e^s), no new softmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import NoiseProfile, PayoffFamily, StateGrid, weighted_inner_product
from .orderflow import DEFAULT_PATHS, LOG_LIK_SPREAD_MAX, likelihood_weights, posterior_blocks

_ERR = "adkyle.objective"

FD_REL_EPS = 1e-3     # eps = FD_REL_EPS * |W|_inf / |v|_inf
GS_DROP_TOL = 1e-8    # relative residual below which a direction is dependent


@dataclass(frozen=True)
class FocReport:
    """Directional first-order condition, analytic terms vs finite difference.

    Attributes:
        payoff_term: int v eta(., s_t) dx (exact quadrature, no noise).
        adverse_selection_term: E[int v P dx].
        impact_term: E[int W Cov_post(eta(x, .), <v, W_tilde_.>_sigma) dx].
        analytic_total: payoff - adverse_selection - impact.
        fd_total: central difference (J(W+eps v) - J(W-eps v)) / (2 eps) on
            common shocks.
        fd_epsilon: step used for the central difference.
        diff: analytic_total - fd_total.
        std_err_diff: standard error of the per-path coupled residual; the
            natural yardstick when the two estimators share shocks.
        std_err_fd: standard error of fd_total as a plain Monte Carlo mean;
            the yardstick for |fd_total| itself (e.g. stationarity checks).
        n_paths: Monte Carlo paths.
    """

    payoff_term: float
    adverse_selection_term: float
    impact_term: float
    analytic_total: float
    fd_total: float
    fd_epsilon: float
    diff: float
    std_err_diff: float
    std_err_fd: float
    n_paths: int


def mean_and_std_err(draws: np.ndarray) -> tuple[float, float]:
    """Sample mean of per-draw values and its standard error std / sqrt(m) (0 for m = 1)."""
    std_err = float(draws.std(ddof=1) / math.sqrt(draws.size)) if draws.size > 1 else 0.0
    return float(draws.mean()), std_err


def _demand_row(grid: StateGrid, w_row: np.ndarray) -> np.ndarray:
    w_row = np.asarray(w_row, dtype=float)
    if w_row.shape != (grid.n,):
        raise ValueError(f"{_ERR}: w_row must have length n={grid.n}")
    return w_row


def _true_payoff(family: PayoffFamily, true_index: int) -> np.ndarray:
    if not 0 <= true_index < family.I:
        raise ValueError(f"{_ERR}: true_index {true_index} out of range for I={family.I}")
    return family.eta[true_index]


def expected_utility(
    w_row: np.ndarray,
    w_tilde: np.ndarray,
    family: PayoffFamily,
    true_index: int,
    noise: NoiseProfile,
    grid: StateGrid,
    n_paths: int = DEFAULT_PATHS,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate of J(W) and its standard error.

    The market maker prices with the candidate schedules w_tilde (I x n); the
    insider actually trades w_row while the realized signal is true_index.
    """
    w_row = _demand_row(grid, w_row)
    trade_w = grid.quad_weights * w_row  # quadrature-weighted trade sizes
    payoff, eta_w = _true_payoff(family, true_index) @ trade_w, family.eta @ trade_w

    profits = np.empty(int(n_paths))
    for sl, pi in posterior_blocks(w_tilde, noise, grid, seed, int(n_paths), w_row=w_row):
        profits[sl] = payoff - pi @ eta_w
    return mean_and_std_err(profits)


def foc_terms(
    w_row: np.ndarray,
    v_row: np.ndarray,
    w_tilde: np.ndarray,
    family: PayoffFamily,
    true_index: int,
    noise: NoiseProfile,
    grid: StateGrid,
    n_paths: int = DEFAULT_PATHS,
    seed: int = 0,
) -> FocReport | list[FocReport]:
    """Directional derivative of the insider objective, three ways decomposed.

    v_row is one direction (n,), giving one FocReport, or a stack (k, n),
    giving k reports, each equal to the single-direction call.  Each block
    draws once and takes one softmax, the base posterior pi, for all directions.

    The impact channel uses the per-path posterior exactly (covariance over
    the I signal atoms), so no nested simulation is required.  The finite
    difference shifts the same log-likelihoods by s = +- eps * F @ (v h), the
    drift shift +- eps * v; each side's price is pi . (u eta_side) / (pi . u)
    with u = e^(s - max s), fixed per direction.  No re-simulation.

    Raises:
        ValueError: if w_row or a direction v is identically zero, or if the
            spread of some eps * F @ (v h) over the signals exceeds
            LOG_LIK_SPREAD_MAX (pi . u could underflow).
    """
    w_row = _demand_row(grid, w_row)
    v = np.asarray(v_row, dtype=float)
    stacked = v.ndim == 2
    v = np.atleast_2d(v)
    if v.ndim != 2 or v.shape[1] != grid.n:
        raise ValueError(f"{_ERR}: v_row must have length n={grid.n}")
    w_max, v_max = float(np.max(np.abs(w_row))), np.max(np.abs(v), axis=1)
    if w_max == 0.0 or np.any(v_max == 0.0):
        raise ValueError(f"{_ERR}: demand w_row or direction v is identically zero")
    eps = FD_REL_EPS * w_max / v_max

    eta, gw, eta_t = family.eta, grid.quad_weights, _true_payoff(family, true_index)
    f, _ = likelihood_weights(w_tilde, noise, grid)
    # Likelihood sensitivities d[k, i] = <v_k, W_tilde_i>_sigma, and the
    # log-likelihood shift per unit eps of the left-point drift v_k h.
    d = np.array([[weighted_inner_product(v_k, row, noise, grid) for row in w_tilde] for v_k in v])
    dshift = np.array([f @ (v_k[:-1] * grid.h) for v_k in v])
    trade_w, trade_v = gw * w_row, gw * v
    trade_plus, trade_minus = gw * (w_row + eps[:, None] * v), gw * (w_row - eps[:, None] * v)
    # eta @ trade as one matrix-vector product per direction: a stack is bitwise the single calls
    eta_w = eta @ trade_w
    eta_v, eta_plus, eta_minus = (np.array([eta @ t for t in trades])
                                  for trades in (trade_v, trade_plus, trade_minus))

    # u = e^(s - max s) for s = +-eps_k dshift_k: u <= 1 cannot overflow, and a shift spread
    # within LOG_LIK_SPREAD_MAX keeps pi . u >= min u >= e^-LOG_LIK_SPREAD_MAX > 0
    shift = eps[:, None] * dshift
    worst = float(np.max(np.ptp(shift, axis=1)))
    if not worst <= LOG_LIK_SPREAD_MAX:  # NaN compares False
        raise ValueError(f"{_ERR}: finite-difference shift spread {worst:.1f} exceeds "
                         f"{LOG_LIK_SPREAD_MAX}; posterior underflow")
    u_plus = np.exp(shift - shift.max(axis=1, keepdims=True))
    u_minus = np.exp(shift.min(axis=1, keepdims=True) - shift)
    ue_plus, ue_minus = u_plus * eta_plus, u_minus * eta_minus

    n_paths = int(n_paths)
    ad, impact, fd = np.empty((3, len(v), n_paths))
    for sl, pi in posterior_blocks(w_tilde, noise, grid, seed, n_paths, w_row=w_row):
        price_w = pi @ eta_w
        for k, e in enumerate(eps):
            ad[k, sl] = pi @ eta_v[k]
            # int W Cov_pi(eta(x, .), d) dx = pi . (d eta_w) - (pi . eta_w)(pi . d)
            impact[k, sl] = pi @ (d[k] * eta_w) - price_w * (pi @ d[k])
            profit_p = trade_plus[k] @ eta_t - (pi @ ue_plus[k]) / (pi @ u_plus[k])
            profit_m = trade_minus[k] @ eta_t - (pi @ ue_minus[k]) / (pi @ u_minus[k])
            fd[k, sl] = (profit_p - profit_m) / (2.0 * e)

    reports = []
    for k, e in enumerate(eps):
        payoff = float(np.dot(trade_v[k], eta_t))
        analytic_per_path = payoff - ad[k] - impact[k]
        diff, std_err_diff = mean_and_std_err(analytic_per_path - fd[k])
        fd_total, std_err_fd = mean_and_std_err(fd[k])
        reports.append(FocReport(
            payoff_term=payoff, adverse_selection_term=float(ad[k].mean()),
            impact_term=float(impact[k].mean()), analytic_total=float(analytic_per_path.mean()),
            fd_total=fd_total, fd_epsilon=float(e), diff=diff, std_err_diff=std_err_diff,
            std_err_fd=std_err_fd, n_paths=n_paths,
        ))
    return reports if stacked else reports[0]


def zero_impact_basis(w_tilde: np.ndarray, noise: NoiseProfile, grid: StateGrid) -> np.ndarray:
    """Smooth directions that move no posterior: <v, W_tilde_i>_sigma = 0 for all i.

    Candidates are the first 2I Legendre polynomials mapped to the grid; each
    is projected off the span of the candidate schedules (and previously kept
    directions) by two-pass Gram-Schmidt in the sigma-weighted inner product.
    Directions whose residual norm falls below GS_DROP_TOL of their original norm
    are discarded as numerically dependent.

    Returns:
        (k, n) matrix of sigma-orthonormal zero-impact directions (k >= 1 for
        any kernel of rank < 2I).
    """
    w_tilde = np.atleast_2d(np.asarray(w_tilde, dtype=float))
    if w_tilde.shape[1] != grid.n:
        raise ValueError(f"{_ERR}: candidate schedules must have n={grid.n} columns")
    I = w_tilde.shape[0]

    def norm(f):
        return math.sqrt(max(weighted_inner_product(f, f, noise, grid), 0.0))

    def orthonormalize(rows, scales, kept):
        """Append each row's normalized two-pass residual off kept, if above GS_DROP_TOL * scale."""
        for u, scale in zip(rows, scales):
            for _ in range(2):
                for b in kept:
                    u = u - weighted_inner_product(u, b, noise, grid) * b
            nu = norm(u)
            if nu > GS_DROP_TOL * scale:
                kept.append(u / nu)
        return kept

    # Orthonormalize the span to project against (rank-tolerant).
    max_norm = max((norm(r) for r in w_tilde), default=0.0)
    span = orthonormalize(w_tilde, [max_norm] * I, [])

    t = (2.0 * grid.nodes - (grid.x_min + grid.x_max)) / (grid.x_max - grid.x_min)
    dictionary = np.polynomial.legendre.legvander(t, 2 * I - 1).T  # 2I rows
    basis = orthonormalize(dictionary, [norm(c) for c in dictionary], list(span))[len(span):]
    if not basis:
        raise ValueError(f"{_ERR}: no zero-impact direction survived; enlarge the dictionary")
    return np.stack(basis)
