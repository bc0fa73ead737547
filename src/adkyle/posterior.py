"""Canonical posterior of the market maker: its law, integrated by quadrature.

Conditional on the true signal s_t, the market maker's date-1 posterior over
the I signals collapses to a finite-dimensional law parametrized by a single
effective signal-to-noise number alpha_bar:

    logits = alpha_bar * Q xi + alpha_bar^2 * e_t,     xi ~ N(0, I_I),
    q      = softmax(logits),

where Q is the centering projector.  The fixed-point residual and the
information efficiency depend on the true-signal entry q_t alone, and
true_belief_moments integrates them (no draw, no seed); the solver roots them
and `posterior probe` reports them.  posterior_covariance integrates E[C | t]
on the same rule for the impact kernel.
"""

from __future__ import annotations

import math

import numpy as np

from .kernel import centering_matrix

_ERR = "adkyle.posterior"

# true_belief_moments: trapezoid rules in r = log(sigma) and in each normal
LOG_SIGMA_STEP = 0.25     # r step; the r rule's error is about exp(-pi^2 / step)
MAX_LOG_SIGMA_POINTS = 400  # r nodes, reached from alpha_bar ~ 3.2 on (step then widens)
NORMAL_STEP = 0.5         # widest step of the rule for E over one N(0, 1) coordinate
NORMAL_RANGE = 8.5        # that rule covers |x| <= NORMAL_RANGE
QUAD_TOL = 1e-12          # bound on the rule's error for alpha_bar in [0, 4] and I <= 64


def _check_alpha_bar(alpha_bar: float) -> None:
    """alpha_bar enters squared: a finite value whose square overflows gives NaN moments."""
    if alpha_bar < 0.0 or not math.isfinite(alpha_bar * alpha_bar):
        raise ValueError(f"{_ERR}: alpha_bar must be >= 0 with a finite square")


def _rule(alpha_bar: float, I: int, rival_square: bool = False):
    """The truth's M_0, M_1 on the r nodes (see true_belief_moments) and trapezoid weights f.

    f[0] = (I-1) h K L^(I-2); with rival_square, f[1] = h G L^(I-2), G(r) = E g_2(r + alpha_bar x).
    """
    if I < 2:
        raise ValueError(f"{_ERR}: need at least two signals")
    _check_alpha_bar(alpha_bar)
    a = float(alpha_bar)
    # below lo every M_k K is under e^-40; above hi every M_k is under exp(-e^5)
    lo, hi = -a * (NORMAL_RANGE + a) - 40.0, a * (NORMAL_RANGE - a) + 5.0
    n_r = min(MAX_LOG_SIGMA_POINTS, math.ceil((hi - lo) / LOG_SIGMA_STEP) + 1)
    r, h = np.linspace(lo, hi, n_r, retstep=True)
    on_line = a * NORMAL_STEP > h
    x_step = h / a if on_line else NORMAL_STEP
    n = int(NORMAL_RANGE / x_step)
    x = x_step * np.arange(-n, n + 1)
    # on_line: a x_j = j h puts r_i + a x_j at point i + j of one r line, so the sums
    # over x are correlations along it (n_r + 2n exps, not n_r (2n + 1)).  Below
    # a = h / NORMAL_STEP that x step is too coarse for the normal: use a grid.
    t = lo + h * np.arange(-n, n_r + n) if on_line else r[:, None] + a * x
    w = np.exp(-0.5 * x * x)
    w /= w.sum()
    sums = []
    for shift, square in ((a * a, False), (0.0, rival_square)):  # M_0, M_1, then L, K, G
        e_t = np.exp(np.minimum(t + shift, 700.0))
        g0 = np.exp(-e_t)
        g = [g0, e_t * g0, e_t * e_t * g0] if square else [g0, e_t * g0]
        sums += [np.correlate(gk, w, "valid") if on_line else gk @ w for gk in g]
    m0, m1, L, K, *G = sums
    f = [(I - 1) * h * K * L ** (I - 2)] + [h * g * L ** (I - 2) for g in G]
    for row in f:
        row[[0, -1]] *= 0.5
    return m0, m1, f


def true_belief_moments(alpha_bar: float, I: int) -> tuple[float, float]:
    """(E[1 - q_t], E[q_t (1 - q_t)]) of the canonical posterior, by quadrature.

    With u and the I - 1 rival x_j i.i.d. N(0, 1), q_t = e^c / (e^c + S) for
    c = alpha_bar u + alpha_bar^2 and S = sum_j e^(alpha_bar x_j).  The identity
    1/D^k = int sigma^(k-1) e^(-sigma D) dsigma / (k-1)! factorizes both
    expectations over the I normals; with r = log(sigma), g_k(t) = exp(k t - e^t),

        E[1 - q_t]       = (I-1) int M_0(r) K(r) L(r)^(I-2) dr,
        E[q_t (1 - q_t)] = (I-1) int M_1(r) K(r) L(r)^(I-2) dr,

    M_k(r) = E g_k(r + c), K(r) = E g_1(r + alpha_bar x), L = E g_0(r + alpha_bar x).
    Each exponent is one argument k t - e^t with t clipped, so nothing overflows, and
    Phi = E[1 - q_t] - alpha_bar^2 E[q_t (1 - q_t)] keeps its sign at large alpha_bar,
    where 1 - (1 + alpha_bar^2) E[q_t] + alpha_bar^2 E[q_t^2] cancels to noise.

    Both rules are trapezoids: in r on the window where M_k K is not negligible, and
    over each normal with alpha_bar * (x step) = (r step), at most NORMAL_STEP, because
    g_k(r + alpha_bar x) has features of width 1 / alpha_bar in x (60 Gauss-Hermite
    nodes err by 2e-5 at alpha_bar = 4).  The result is within QUAD_TOL of the exact
    value for alpha_bar in [0, 4] and I <= 64; the cost does not depend on I.
    """
    m0, m1, (f,) = _rule(alpha_bar, I)
    return float(f @ m0), float(f @ m1)


def posterior_covariance(alpha_bar: float, I: int, true_index: int | None = None) -> np.ndarray:
    """E[C | t], C = diag(q) - q q^T, of the canonical posterior given the truth t.

    Three quadrature numbers fix it: B = E[q_t (1 - q_t)] (true_belief_moments'),
    E[q_j] = E[1 - q_t] / (I-1) and E[q_j^2] = int M_0 G L^(I-2) dr for a rival j.
    C_tt = B, C_tj = -B / (I-1), C_jj = E[q_j] - E[q_j^2] and, as rows sum to 0,
    C_jk = -(C_jj - B / (I-1)) / (I-2).  With true_index None, the mean over a
    uniform t: kappa Q, kappa = B / (I-1) + C_jj.  Each entry is within 3 QUAD_TOL.
    """
    if true_index is not None and not 0 <= true_index < I:
        raise ValueError(f"{_ERR}: true_index {true_index} out of range for I={I}")
    m0, m1, (f, f_sq) = _rule(alpha_bar, I, rival_square=True)
    b, c_tj = float(f @ m1), -float(f @ m1) / (I - 1)
    c_jj = float(f @ m0) / (I - 1) - float(f_sq @ m0)
    if true_index is None:
        return (b / (I - 1) + c_jj) * centering_matrix(I)
    c = np.full((I, I), -(c_jj + c_tj) / (I - 2) if I > 2 else 0.0)
    np.fill_diagonal(c, c_jj)
    c[true_index, :] = c[:, true_index] = c_tj
    c[true_index, true_index] = b
    return c
