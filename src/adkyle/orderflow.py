"""Order-flow simulation and the market maker's pathwise inference.

The aggregate order flow across the asset continuum is the Euler discretization
of dY_x = W(x, s) dx + sigma(x) dB_x over the grid, with left-endpoint sums
throughout (the integrand is adapted: it may not peek at the increment it
multiplies).  Given candidate demand schedules W_tilde_i for each signal, the
market maker's posterior is proportional to

    exp( int W_tilde_i / sigma^2 dY - (1/2) <W_tilde_i, W_tilde_i>_sigma ).
"""

from __future__ import annotations

import math

import numpy as np

from ._rng import block_generator, block_sizes
from .model import NoiseProfile, PayoffFamily, StateGrid, weighted_inner_product
from .posterior import softmax

_ERR = "adkyle.orderflow"

LOG_LIK_SPREAD_MAX = 700.0  # beyond this, exp underflow erases posterior mass
PATH_BLOCK_SIZE = 4096      # paths per counter block; keeps block matrices small


def iter_shock_blocks(grid: StateGrid, seed: int, n_paths: int):
    """Yield (offset, shocks) blocks of standard normals, shape (m, n-1).

    Blocks are generated with counter keys (seed, block_id) at a fixed block
    size, so the concatenated stream depends only on the seed -- never on how
    a consumer chunks its work.
    """
    if n_paths < 1:
        raise ValueError(f"{_ERR}: n_paths must be positive")
    offset = 0
    for block_id, m in enumerate(block_sizes(int(n_paths), PATH_BLOCK_SIZE)):
        yield offset, block_generator(seed, block_id).standard_normal((m, grid.n - 1))
        offset += m


def simulate_increments(
    w_row: np.ndarray,
    noise: NoiseProfile,
    grid: StateGrid,
    seed: int,
    n_paths: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Euler increments for n_paths independent paths.

    Returns (increments, shocks), both (n_paths, n-1).
    """
    w_row = np.asarray(w_row, dtype=float)
    if w_row.shape != (grid.n,):
        raise ValueError(f"{_ERR}: demand row must have length n={grid.n}")
    h = grid.h
    drift = w_row[:-1] * h
    scale = noise.sigma[:-1] * math.sqrt(h)
    shocks = np.concatenate(
        [blk for _, blk in iter_shock_blocks(grid, seed, n_paths)], axis=0
    )
    increments = drift + scale * shocks
    return increments, shocks


def pi_mm(
    w_tilde_row: np.ndarray, increments: np.ndarray, noise: NoiseProfile, grid: StateGrid
) -> float | np.ndarray:
    """Market maker's integral int W_tilde / sigma^2 dY per path (left-point, adapted).

    increments is one path's dY, shape (n-1,), or a batch (m, n-1); the result
    is a float or an (m,) array.
    """
    increments = np.asarray(increments, dtype=float)
    if increments.ndim not in (1, 2) or increments.shape[-1] != grid.n - 1:
        raise ValueError(f"{_ERR}: increments must be (n-1,) or (m, n-1)")
    return increments @ (np.asarray(w_tilde_row, dtype=float) / np.square(noise.sigma))[:-1]


def pi_insider(
    w_row: np.ndarray, w_tilde_row: np.ndarray, noise: NoiseProfile, grid: StateGrid
) -> float:
    """Expected insider contribution <W, W_tilde>_sigma (trapezoid weights)."""
    return weighted_inner_product(w_row, w_tilde_row, noise, grid)


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
    w_tilde = np.asarray(w_tilde, dtype=float)
    increments = np.atleast_2d(np.asarray(increments, dtype=float))
    if w_tilde.ndim != 2 or w_tilde.shape[1] != grid.n:
        raise ValueError(f"{_ERR}: w_tilde must be an I x n matrix")
    if increments.shape[1] != grid.n - 1:
        raise ValueError(f"{_ERR}: increments must have n-1 columns")
    f = w_tilde / np.square(noise.sigma)  # I x n
    drift_part = increments @ f[:, :-1].T
    # row-wise weighted_inner_product(row, row): the same products, summed per row
    gram_diag = np.sum((w_tilde * w_tilde) * (grid.quad_weights / np.square(noise.sigma)), axis=1)
    return drift_part - 0.5 * gram_diag


def posterior_weights(log_lik: np.ndarray) -> np.ndarray:
    """Softmax over signals with a hard guard against underflow erasure.

    Raises:
        ValueError: when the spread of log-likelihoods exceeds
            LOG_LIK_SPREAD_MAX; the posterior would silently lose all mass on
            the trailing signals to floating-point underflow.
    """
    log_lik = np.atleast_2d(np.asarray(log_lik, dtype=float))
    spread = log_lik.max(axis=1) - log_lik.min(axis=1)
    worst = float(spread.max())
    if worst > LOG_LIK_SPREAD_MAX:
        raise ValueError(
            f"{_ERR}: log-likelihood spread {worst:.1f} exceeds "
            f"{LOG_LIK_SPREAD_MAX}; posterior underflow"
        )
    return softmax(log_lik)


def posterior_blocks(
    w_tilde: np.ndarray,
    noise: NoiseProfile,
    grid: StateGrid,
    seed: int,
    n_paths: int,
    w_row: np.ndarray | None = None,
    signals: np.ndarray | None = None,
):
    """Yield (slice, increments, pi) over the seed's shock blocks.

    The insider trades one demand row w_row on every path, or, given per-path
    signal indices, row signals[b] of w_tilde on path b.  The market maker
    prices with the candidate schedules w_tilde (I x n); pi is its posterior,
    shape (m, I), for the m paths in the block.
    """
    if (w_row is None) == (signals is None):
        raise ValueError(f"{_ERR}: pass exactly one of w_row and signals")
    w_tilde = np.asarray(w_tilde, dtype=float)
    h = grid.h
    scale = noise.sigma[:-1] * math.sqrt(h)
    drift = (w_tilde if w_row is None else np.asarray(w_row, dtype=float))[..., :-1] * h
    for offset, shocks in iter_shock_blocks(grid, seed, n_paths):
        sl = slice(offset, offset + shocks.shape[0])
        inc = (drift if signals is None else drift[signals[sl]]) + scale * shocks
        yield sl, inc, posterior_weights(log_likelihoods(w_tilde, inc, noise, grid))


def price_schedule(pi: np.ndarray, family: PayoffFamily) -> np.ndarray:
    """Date-1 price curve P(x) = sum_i pi_i eta(x, s_i) for posterior weights pi.

    Accepts a single weight vector (returns length n) or a batch (n_paths, I)
    (returns (n_paths, n)).
    """
    pi = np.asarray(pi, dtype=float)
    if pi.shape[-1] != family.I:
        raise ValueError(f"{_ERR}: posterior length must equal I={family.I}")
    return pi @ family.eta
