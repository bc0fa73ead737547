"""Canonical posterior of the market maker: its law, integrated by quadrature.

Conditional on the true signal s_t, the market maker's date-1 posterior over
the I signals collapses to a finite-dimensional law parametrized by a single
effective signal-to-noise number alpha_bar:

    logits = alpha_bar * Q xi + alpha_bar^2 * e_t,     xi ~ N(0, I_I),
    q      = softmax(logits),

where Q is the centering projector.  The fixed-point residual and the
information efficiency depend on the true-signal entry q_t alone, and
true_belief_moments integrates them (no draw, no seed) on lines that calls at several I
can share, for the solver and `posterior probe`.  posterior_moments integrates E[q | t]
and the bilinear form of E[C | t], never the I x I matrix, for the FOC and the impact.
"""

from __future__ import annotations

import math

import numpy as np

_ERR = "adkyle.posterior"

# true_belief_moments: trapezoid rules in r = log(sigma) and in each normal
LOG_SIGMA_STEP = 0.25     # r step; the r rule's error is about exp(-pi^2 / step)
MAX_LOG_SIGMA_POINTS = 400  # r nodes, reached from alpha_bar ~ 3.2 on (step then widens)
NORMAL_STEP = 0.5         # widest step of the rule for E over one N(0, 1) coordinate
NORMAL_RANGE = 8.5        # that rule covers |x| <= NORMAL_RANGE
QUAD_TOL = 1e-12          # bound on the rule's error for alpha_bar in [0, 4] and I <= 64


def _check_alpha_bar(alpha_bar: float) -> None:
    """_lines' window sits at -alpha_bar^2 and is 2 alpha_bar NORMAL_RANGE + 45 wide; past
    NORMAL_RANGE / eps (3.8e16) alpha_bar^2 rounds by that much (NaN moments from ~1.44e17)."""
    if not 0.0 <= alpha_bar <= NORMAL_RANGE / math.ulp(1.0):
        raise ValueError(f"{_ERR}: alpha_bar must be in [0, {NORMAL_RANGE / math.ulp(1.0):.3g}]")


def _lines(alpha_bar: float):
    """The r step h and sums(shift, square): E g_k(r + shift + alpha_bar x) on the r nodes.

    sums gives k = 0, 1, and 2 with square: (n_r,) for a float shift, (m, n_r) for m shifts.
    The window fits a truth at shift alpha_bar^2 and rivals at 0 (see true_belief_moments);
    it also fits any shifts at most alpha_bar^2.
    """
    _check_alpha_bar(alpha_bar)
    a = float(alpha_bar)
    # below lo every M_k K is under e^-40; above hi every M_k is under exp(-e^5)
    lo, hi = -a * (NORMAL_RANGE + a) - 40.0, a * (NORMAL_RANGE - a) + 5.0
    n_r = min(MAX_LOG_SIGMA_POINTS, math.ceil((hi - lo) / LOG_SIGMA_STEP) + 1)
    h = (hi - lo) / (n_r - 1)  # np.linspace's step, bit for bit
    on_line = a * NORMAL_STEP > h
    x_step = h / a if on_line else NORMAL_STEP
    n = int(NORMAL_RANGE / x_step)
    x = x_step * np.arange(-n, n + 1)
    # on_line: a x_j = j h puts r_i + a x_j at point i + j of one r line, so the sums
    # over x are correlations along it (n_r + 2n exps, not n_r (2n + 1)).  Below
    # a = h / NORMAL_STEP that x step is too coarse for the normal: use a grid.
    t = lo + h * np.arange(-n, n_r + n) if on_line else np.linspace(lo, hi, n_r)[:, None] + a * x
    w = np.exp(-0.5 * x * x)
    w /= w.sum()

    def sums(shift, square: bool = False) -> list[np.ndarray]:
        rows = isinstance(shift, np.ndarray)  # m shifts: one exp pass, one correlation per line
        e_t = np.exp(np.minimum(np.add.outer(shift, t) if rows else t + shift, 700.0))
        g0 = np.exp(-e_t)
        g = [g0, e_t * g0, e_t * e_t * g0] if square else [g0, e_t * g0]
        if not on_line:
            return [gk @ w for gk in g]
        return [np.array([np.correlate(row, w, "valid") for row in gk]) if rows
                else np.correlate(gk, w, "valid") for gk in g]

    return h, sums


def _truth_lines(alpha_bar: float, rival_square: bool = False) -> tuple:
    """(h, M_0, M_1, L, K), then G with rival_square, on the r nodes: none depends on I."""
    h, sums = _lines(alpha_bar)
    a = float(alpha_bar)
    return h, *sums(a * a), *sums(0.0, rival_square)


def _weigh(lines: tuple, I: int):
    """M_0, M_1 and the weights f[0] = (I-1) h K L^(I-2), then f[1] = h G L^(I-2) with G."""
    if I < 2:
        raise ValueError(f"{_ERR}: need at least two signals")
    h, m0, m1, L, K, *G = lines
    f = [(I - 1) * h * K * L ** (I - 2)] + [h * g * L ** (I - 2) for g in G]
    for row in f:
        row[0] *= 0.5
        row[-1] *= 0.5
    return m0, m1, f


def true_belief_moments(alpha_bar: float, I: int,
                        windows: dict | None = None) -> tuple[float, float]:
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
    value for alpha_bar in [0, 4] and I <= 64; the cost does not depend on I, nor do the
    lines M_0, M_1, K, L: calls that share a windows dict integrate each alpha_bar once.
    """
    windows = {} if windows is None else windows
    if alpha_bar not in windows:
        windows[alpha_bar] = _truth_lines(alpha_bar)
    m0, m1, (f,) = _weigh(windows[alpha_bar], I)
    return float(f @ m0), float(f @ m1)


def posterior_moments(alpha_bar: float, I: int, true_index: int | None = None) -> tuple:
    """(E[q | t], cov), cov(a, b) = a^T E[C | t] b for C = diag(q) - q q^T of the canonical
    posterior given the truth t, and columns a, b: (I,) or stacks (I, m), in O(I m).

    Three quadrature numbers fix both: true_belief_moments' E[1 - q_t] and B = E[q_t (1 - q_t)],
    and E[q_j^2] = int M_0 G L^(I-2) dr for a rival j, with E[q_j] = E[1 - q_t] / (I-1).
    C_tt = B, C_tj = -B / (I-1), C_jj = E[q_j] - E[q_j^2] and, as rows sum to 0,
    C_jk = -(C_jj + C_tj) / (I-2), or 0 at I = 2.  So E[C | t] = d Q + s u u^T, u = Q e_t, with
    d = C_jj - C_jk and s = B - C_jj - 2 (C_tj - C_jk): cov(a, b) = d a~^T b~ + s a~_t b~_t for
    the centred a~, b~.  With true_index None, the means over a uniform t: 1/I and kappa Q,
    kappa = B / (I-1) + C_jj.  Each E[q] entry is within QUAD_TOL and each E[C] within 3 QUAD_TOL.
    """
    if true_index is not None and not 0 <= true_index < I:
        raise ValueError(f"{_ERR}: true_index {true_index} out of range for I={I}")
    m0, m1, (f, f_sq) = _weigh(_truth_lines(alpha_bar, rival_square=True), I)
    not_true, spread = float(f @ m0), float(f @ m1)
    c_tj = -spread / (I - 1)
    c_jj = not_true / (I - 1) - float(f_sq @ m0)
    c_jk = -(c_jj + c_tj) / (I - 2) if I > 2 else 0.0
    if true_index is None:  # kappa Q: d = kappa, s = 0
        mean, t, d, s = np.full(I, 1.0 / I), 0, spread / (I - 1) + c_jj, 0.0
    else:
        t, d, s = true_index, c_jj - c_jk, spread - c_jj - 2.0 * (c_tj - c_jk)
        mean = np.where(np.arange(I) == t, 1.0 - not_true, not_true / (I - 1))

    def cov(a: np.ndarray, b: np.ndarray):
        a, b = a - a.mean(axis=0), b - b.mean(axis=0)
        return d * (a.T @ b) + s * np.multiply.outer(a[t], b[t])

    return mean, cov


def softmax_mean(alpha_bar: float, mu: np.ndarray) -> np.ndarray:
    """E[softmax(mu_k + alpha_bar xi)], xi ~ N(0, I_I), for each row mu_k of mean logits (k, I).

    The 1/D identity of true_belief_moments factorizes each entry over the I normals,

        E[q_i] = int E g_1(r + mu_i + alpha_bar x) prod_{j != i} E g_0(r + mu_j + alpha_bar x) dr,

    one r line per signal, shifted by mu_j.  softmax ignores a common shift, so each row is
    shifted to max mu_k = alpha_bar^2, where the rule's window puts the canonical truth:
    at mu = alpha_bar^2 e_t the lines are those of true_belief_moments.  Every row is
    integrated on one window, and its (I,) result is bitwise that of its one-row call.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 2 or len(mu) == 0 or mu.shape[1] < 2:
        raise ValueError(f"{_ERR}: need k >= 1 rows (k, I) of at least two mean logits")
    h, sums = _lines(alpha_bar)
    shifts = mu - mu.max(axis=1, keepdims=True) + alpha_bar * alpha_bar
    L, K = (g.reshape(*mu.shape, -1) for g in sums(shifts.ravel()))
    others = np.stack([np.prod(np.delete(L, i, 1), axis=1) for i in range(mu.shape[1])], 1)
    f = h * K * others
    f[..., 0] *= 0.5
    f[..., -1] *= 0.5
    return f.sum(axis=-1)
