"""Insider objective, first-order conditions, and the bond's zero-impact direction.

The insider with signal s_t trading schedule W earns

    J(W) = E[ int W(x) (eta(x, s_t) - P(x)) dx ],

where P is the market maker's posterior-mean price curve.  Perturbing W by
eps * v moves J through three channels: the direct payoff int v eta dx, the
price paid int v P dx, and the price pressure of v on P via the likelihoods.
At an equilibrium demand the posterior has the canonical law, so foc_terms
reports all three in closed form, from the solver's quadrature, next to a
finite difference of J that is a quadrature too: nothing is drawn.  A bond pays
the same in every state and every demand row is sigma-orthogonal to it, so the
sigma-unit bond moves no posterior: it is the zero-impact direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import canonical_gram
from .model import NoiseProfile, PayoffFamily, StateGrid, weighted_inner_product
from .posterior import QUAD_TOL, posterior_moments, softmax_mean

_ERR = "adkyle.objective"

FD_REL_EPS = 1e-3     # eps = FD_REL_EPS * |W|_inf / |v|_inf


@dataclass(frozen=True)
class FocReport:
    """Directional first-order condition: closed-form terms and a finite difference.

    Attributes:
        payoff_term: int v eta(., s_t) dx.
        adverse_selection_term: E[int v P dx] = E[q | t] . (eta @ v).
        impact_term: E[int W Cov_post(eta(x, .), <v, W_.>_sigma) dx] = eta_w^T E[C | t] d.
        analytic_total: payoff - adverse_selection - impact, the first-order residual.
        residual_bound: largest |analytic_total| an equilibrium demand can show: the
            quadrature and exchangeability error of the terms and the solved root's Phi.
        fd_total: Richardson extrapolation (4 fd(eps/2) - fd(eps)) / 3 of the central
            differences fd(e) = (J(W + e v) - J(W - e v)) / (2 e).
        fd_epsilon: the step eps.
        diff: analytic_total - fd_total.
        fd_bound: largest |diff| the two quadratures allow, plus |fd(eps) - fd(eps/2)|.
    """

    payoff_term: float
    adverse_selection_term: float
    impact_term: float
    analytic_total: float
    residual_bound: float
    fd_total: float
    fd_epsilon: float
    diff: float
    fd_bound: float


def foc_terms(
    directions: np.ndarray,
    w_star: np.ndarray,
    family: PayoffFamily,
    true_index: int,
    noise: NoiseProfile,
    grid: StateGrid,
    phi_residual: float = 0.0,
) -> list[FocReport]:
    """Directional derivatives of the insider objective at the equilibrium demand w_star.

    The insider with signal t trades W = w_star[t], and the market maker prices with
    w_star (I x n), whose sigma-Gram alpha^2 Q gives the posterior the canonical law at
    alpha: posterior_moments gives its E[q | t] and the form of E[C | t], one O(I k) call.
    directions is a stack (k, n), giving one report per row.  phi_residual is Phi at the
    root w_star was built from (0 for an exact root).

    J(W + e v) is trade . eta_t - E[q] . (eta @ trade), with E[q] = E[softmax(mu + alpha xi)]
    for mu_i = <W + e v, w_star_i>_sigma - |w_star_i|^2_sigma / 2.  One softmax_mean call
    integrates the 4k rows e = +-eps, +-eps/2 of every direction on one window.

    Raises:
        ValueError: a Gram of w_star not alpha^2 Q, a zero demand row or direction, or
            true_index out of range.
    """
    gram, alpha_sq, gap = canonical_gram(w_star, noise, grid)
    I = len(gram)
    if not 0 <= true_index < I:
        raise ValueError(f"{_ERR}: true_index {true_index} out of range for I={I}")
    v = np.asarray(directions, dtype=float)
    if v.ndim != 2 or len(v) == 0 or v.shape[1] != grid.n:
        raise ValueError(f"{_ERR}: directions must be a stack (k >= 1, n={grid.n})")
    w_row = np.asarray(w_star, dtype=float)[true_index]
    w_max, v_max = float(np.max(np.abs(w_row))), np.max(np.abs(v), axis=1)
    if w_max == 0.0 or np.any(v_max == 0.0):
        raise ValueError(f"{_ERR}: demand row or direction v is identically zero")

    alpha = math.sqrt(alpha_sq)
    belief, cov = posterior_moments(alpha, I, true_index)
    eta, gw, eta_t = family.eta, grid.quad_weights, family.eta[true_index]
    eta_w = eta @ (gw * w_row)
    mu = gram[true_index] - 0.5 * np.diag(gram)
    d = weighted_inner_product(v[:, None], w_star, noise, grid)

    # J at e = eps, -eps, eps/2, -eps/2 per direction; central differences at eps and eps/2
    eps = FD_REL_EPS * w_max / v_max
    steps = eps[:, None] * np.array([1.0, -1.0, 0.5, -0.5])
    trades = (gw * (w_row + steps[:, :, None] * v[:, None, :])).reshape(-1, grid.n)
    means = softmax_mean(alpha, (mu + steps[:, :, None] * d[:, None, :]).reshape(-1, I))
    J = np.reshape([t @ eta_t - q @ (eta @ t) for t, q in zip(trades, means)], steps.shape)
    coarse, fine = ((J[:, 0::2] - J[:, 1::2]) / (2.0 * steps[:, 0::2])).T

    reports = []
    for v_k, d_k, impact, e, c, f in zip(v, d, cov(eta_w, d.T).tolist(), eps, coarse, fine):
        trade_v = gw * v_k
        eta_v = eta @ trade_v
        payoff, ad = float(trade_v @ eta_t), float(belief @ eta_v)
        analytic = payoff - ad - impact
        # each E[q] entry is within QUAD_TOL and each E[C] entry within 3 QUAD_TOL; a Gram
        # gap moves the mean logits by at most 1.5 gap and their covariance by gap; and the
        # residual of the demand built from a root with Phi != 0 is I/(I-1) Phi (Q eta_v)_t
        scale = float(np.abs(eta_v).sum() + np.abs(eta_w).sum() * np.abs(d_k).sum())
        tol = 3.0 * (QUAD_TOL + gap) * scale
        fd = float((4.0 * f - c) / 3.0)
        reports.append(FocReport(
            payoff_term=payoff, adverse_selection_term=ad, impact_term=impact,
            analytic_total=analytic, residual_bound=tol + 2.0 * abs(phi_residual) * scale,
            fd_total=fd, fd_epsilon=float(e), diff=analytic - fd,
            fd_bound=float(2.0 * tol + abs(c - f)),
        ))
    return reports


def zero_impact_direction(noise: NoiseProfile, grid: StateGrid) -> np.ndarray:
    """The sigma-unit bond 1 / sqrt(<1, 1>_sigma), which moves no posterior.

    An equilibrium demand row is W_i = sigma^2 a (eta_i - eta_bar) for a scalar a, and
    normalized_family gives every eta_i quadrature mass 1, so <1, W_i>_sigma = a (1 - 1)
    = 0, up to rounding, for every family and noise profile.
    """
    bond = np.ones(grid.n)
    return bond / math.sqrt(weighted_inner_product(bond, bond, noise, grid))
