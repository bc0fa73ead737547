"""Order-flow simulation and the market maker's pathwise inference.

The aggregate order flow across the asset continuum is the Euler discretization
of dY_x = W(x, s) dx + sigma(x) dB_x over the grid, with left-endpoint sums
throughout (the integrand is adapted: it may not peek at the increment it
multiplies).  Given candidate demand schedules W_tilde_i for each signal, the
market maker's posterior is proportional to

    exp( int W_tilde_i / sigma^2 dY - (1/2) <W_tilde_i, W_tilde_i>_sigma ).

A path enters the posterior only through its I projections int W_tilde_i /
sigma^2 dY, so the first-order checks draw those I numbers per path directly,
from their own stream; only simulate draws (n_paths, n-1) shocks and builds
increments.
"""

from __future__ import annotations

import math

import numpy as np

from ._rng import FLOW_STATISTIC, PATH_SHOCKS, blocks, derive_seed, standard_normal_matrix
from .model import NoiseProfile, PayoffFamily, StateGrid

_ERR = "adkyle.orderflow"

LOG_LIK_SPREAD_MAX = 700.0  # beyond this, exp underflow erases posterior mass
PATH_BLOCK_SIZE = 4096      # paths per counter block; keeps block matrices small
DEFAULT_PATHS = 20_000      # order-flow paths behind the first-order checks


def simulate_increments(
    w_row: np.ndarray,
    noise: NoiseProfile,
    grid: StateGrid,
    seed: int,
    n_paths: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Euler increments for n_paths independent paths.

    Returns (increments, shocks), both (n_paths, n-1); path p is row p of the
    seed's PATH_SHOCKS stream, whatever n_paths.
    """
    w_row = np.asarray(w_row, dtype=float)
    if w_row.shape != (grid.n,):
        raise ValueError(f"{_ERR}: demand row must have length n={grid.n}")
    if n_paths < 1:
        raise ValueError(f"{_ERR}: n_paths must be positive")
    shocks = standard_normal_matrix(derive_seed(seed, *PATH_SHOCKS), int(n_paths), grid.n - 1,
                                    PATH_BLOCK_SIZE)
    increments = w_row[:-1] * grid.h + noise.sigma[:-1] * math.sqrt(grid.h) * shocks
    return increments, shocks


def likelihood_weights(
    w_tilde: np.ndarray, noise: NoiseProfile, grid: StateGrid
) -> tuple[np.ndarray, np.ndarray]:
    """F = (W_tilde / sigma^2)[:, :-1] and gram_diag[i] = <W_tilde_i, W_tilde_i>_sigma.

    increments @ F.T are a path's I projections int W_tilde_i / sigma^2 dY (left point).
    """
    w_tilde = np.asarray(w_tilde, dtype=float)
    if w_tilde.ndim != 2 or w_tilde.shape[1] != grid.n:
        raise ValueError(f"{_ERR}: w_tilde must be an I x n matrix")
    var = np.square(noise.sigma)
    # row-wise weighted_inner_product(row, row): the same products, summed per row
    gram_diag = np.sum((w_tilde * w_tilde) * (grid.quad_weights / var), axis=1)
    return (w_tilde / var)[:, :-1], gram_diag


def log_likelihoods(
    w_tilde: np.ndarray,
    increments: np.ndarray,
    noise: NoiseProfile,
    grid: StateGrid,
) -> np.ndarray:
    """Batch log-likelihoods, shape (n_paths, I).

    log_lik[b, i] = sum_j (W_tilde_i/sigma^2)(x_j) dY_j
                    - (1/2) <W_tilde_i, W_tilde_i>_sigma.
    """
    f, gram_diag = likelihood_weights(w_tilde, noise, grid)
    increments = np.atleast_2d(np.asarray(increments, dtype=float))
    if increments.shape[1] != grid.n - 1:
        raise ValueError(f"{_ERR}: increments must have n-1 columns")
    return increments @ f.T - 0.5 * gram_diag


def signal_sweep(extreme: np.ufunc, a: np.ndarray) -> np.ndarray:
    """extreme.reduce(a, axis=-1) for np.maximum or np.minimum, one column at a time.

    Each of the I - 1 steps is one ufunc call over every row at once, about a
    thirtieth of numpy's cost on a 4096 x 2 block.  The value is numpy's; only
    the sign of a zero extreme can differ, where a row ties +0.0 with -0.0 and
    numpy (eight lanes from I = 9) meets them in another order.
    """
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        extreme(out, a[..., j], out=out)
    return out


def signal_sum(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1) by whole columns, in the order of numpy's pairwise sum.

    Below 8 columns left to right; up to 128 in eight lanes (lane r: columns r,
    r + 8, ...) joined as ((0+1)+(2+3))+((4+5)+(6+7)), then the leftover columns;
    above 128 as two halves split at a multiple of 8.  The value is numpy's; only
    an all-zero row can differ, in the sign of its zero.  On a 4096-row block it
    takes a tenth of numpy's time at I = 2, breaks even near I = 16 and takes
    3-5 times as long at I = 64 (timeit, 2-core Xeon).
    """
    n = a.shape[-1]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return signal_sum(a[..., :half]) + signal_sum(a[..., half:])
    width = 8 if n >= 8 else 1
    end = n - n % width
    r = a[..., :width].copy()
    for j in range(width, end, width):
        r += a[..., j:j + width]
    while r.shape[-1] > 1:
        r = r[..., 0::2] + r[..., 1::2]
    out = r[..., 0]
    for j in range(end, n):
        out += a[..., j]
    return out


def posterior_weights(log_lik: np.ndarray) -> np.ndarray:
    """Softmax over signals with a hard guard against underflow erasure.

    Raises:
        ValueError: when the spread of log-likelihoods exceeds
            LOG_LIK_SPREAD_MAX; the posterior would silently lose all mass on
            the trailing signals to floating-point underflow; or when a row's
            spread is NaN (a NaN entry, an all -inf row), which would give NaN
            beliefs.
    """
    log_lik = np.atleast_2d(np.asarray(log_lik, dtype=float))
    top = signal_sweep(np.maximum, log_lik)
    with np.errstate(invalid="ignore"):  # an all -inf row: -inf - -inf is NaN, rejected below
        spread = top - signal_sweep(np.minimum, log_lik)
    worst = float(spread.max())
    if not worst <= LOG_LIK_SPREAD_MAX:  # NaN compares False
        if not math.isfinite(worst):
            raise ValueError(f"{_ERR}: log-likelihood is non-finite (row spread {worst})")
        raise ValueError(
            f"{_ERR}: log-likelihood spread {worst:.1f} exceeds "
            f"{LOG_LIK_SPREAD_MAX}; posterior underflow"
        )
    # softmax shifted by the guard's max (a zero shift's sign does not change exp),
    # in place, so a call allocates one array the size of its input, stacked or not
    w = log_lik - top[..., None]
    np.exp(w, out=w)
    w /= signal_sum(w)[..., None]
    return w


def posterior_blocks(w_tilde: np.ndarray, noise: NoiseProfile, grid: StateGrid, seed: int,
                     n_paths: int, w_row: np.ndarray):
    """Yield (slice, pi) over the seed's FLOW_STATISTIC stream in path blocks.

    The insider trades the demand row w_row on every path.  The market maker
    prices with the candidate schedules w_tilde (I x n); the posterior pi is
    shape (m, I) for the m paths in the block.

    pi is the softmax of the log-likelihoods, the drift's projections plus the
    noise's, nu = shocks @ A.T ~ N(0, A A^T) with A = (sigma sqrt(h)) * F, drawn
    as z @ R from I normals z per path and the QR factor R of A^T (A A^T is
    singular when the rows of W_tilde sum to zero, so it has no Cholesky factor).
    """
    if n_paths < 1:
        raise ValueError(f"{_ERR}: n_paths must be positive")
    f, gram_diag = likelihood_weights(w_tilde, noise, grid)
    mean = np.asarray(w_row, dtype=float)[:-1] * grid.h @ f.T - 0.5 * gram_diag
    r = np.linalg.qr((noise.sigma[:-1] * math.sqrt(grid.h) * f).T, mode="r")
    z = standard_normal_matrix(derive_seed(seed, *FLOW_STATISTIC), int(n_paths), len(f),
                               PATH_BLOCK_SIZE)
    for _, sl in blocks(len(z), PATH_BLOCK_SIZE):
        yield sl, posterior_weights(mean + z[sl] @ r)


def price_schedule(pi: np.ndarray, family: PayoffFamily) -> np.ndarray:
    """Date-1 price curve P(x) = sum_i pi_i eta(x, s_i) for posterior weights pi.

    Accepts a single weight vector (returns length n) or a batch (n_paths, I)
    (returns (n_paths, n)).
    """
    pi = np.asarray(pi, dtype=float)
    if pi.shape[-1] != family.I:
        raise ValueError(f"{_ERR}: posterior length must equal I={family.I}")
    return pi @ family.eta
