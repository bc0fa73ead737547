"""Order-flow simulation and the market maker's pathwise inference.

The aggregate order flow across the asset continuum is the Euler discretization
of dY_x = W(x, s) dx + sigma(x) dB_x over the grid, with left-endpoint sums
throughout (the integrand is adapted: it may not peek at the increment it
multiplies).  Given candidate demand schedules W_tilde_i for each signal, the
market maker's posterior is proportional to

    exp( int W_tilde_i / sigma^2 dY - (1/2) <W_tilde_i, W_tilde_i>_sigma ).

A path enters the posterior only through its I projections int W_tilde_i /
sigma^2 dY.  Only simulate draws paths: impact and verify-foc integrate the
posterior's law by quadrature (posterior.py).
"""

from __future__ import annotations

import math

import numpy as np

from ._rng import PATH_SHOCKS, derive_seed, standard_normal_matrix
from .model import NoiseProfile, PayoffFamily, StateGrid, weighted_inner_product

_ERR = "adkyle.orderflow"

LOG_LIK_SPREAD_MAX = 700.0  # beyond this, exp underflow erases posterior mass
PATH_BLOCK_SIZE = 4096      # Philox block rows of the path stream: part of every path draw


def simulate_increments(
    w_row: np.ndarray,
    noise: NoiseProfile,
    grid: StateGrid,
    seed: int,
    n_paths: int,
) -> np.ndarray:
    """Vectorized Euler increments for n_paths independent paths, (n_paths, n-1).

    Path p is row p of the seed's PATH_SHOCKS stream, whatever n_paths.
    """
    w_row = np.asarray(w_row, dtype=float)
    if w_row.shape != (grid.n,):
        raise ValueError(f"{_ERR}: demand row must have length n={grid.n}")
    if n_paths < 1:
        raise ValueError(f"{_ERR}: n_paths must be positive")
    shocks = standard_normal_matrix(derive_seed(seed, *PATH_SHOCKS), int(n_paths), grid.n - 1,
                                    PATH_BLOCK_SIZE)
    # in place, one (n_paths, n-1) array at a peak: * and + commute, so w h + sigma sqrt(h) shocks
    shocks *= noise.sigma[:-1] * math.sqrt(grid.h)
    shocks += w_row[:-1] * grid.h
    return shocks


def cumulative_flow(increments: np.ndarray) -> np.ndarray:
    """Order-flow levels Y, (k, n) from (k, n-1) increments: 0 at the first node, then sums."""
    y = np.zeros((increments.shape[0], increments.shape[1] + 1))
    np.cumsum(increments, axis=1, out=y[:, 1:])
    return y


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
    if w_tilde.ndim != 2 or w_tilde.shape[1] != grid.n:
        raise ValueError(f"{_ERR}: w_tilde must be an I x n matrix")
    gram_diag = weighted_inner_product(w_tilde, w_tilde, noise, grid)
    f = (w_tilde / np.square(noise.sigma))[:, :-1]
    increments = np.atleast_2d(np.asarray(increments, dtype=float))
    if increments.shape[1] != grid.n - 1:
        raise ValueError(f"{_ERR}: increments must have n-1 columns")
    return increments @ f.T - 0.5 * gram_diag


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
    top = log_lik.max(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore"):  # an all -inf row: -inf - -inf is NaN, rejected below
        spread = top - log_lik.min(axis=-1, keepdims=True)
    worst = float(spread.max())
    if not worst <= LOG_LIK_SPREAD_MAX:  # NaN compares False
        if not math.isfinite(worst):
            raise ValueError(f"{_ERR}: log-likelihood is non-finite (row spread {worst})")
        raise ValueError(
            f"{_ERR}: log-likelihood spread {worst:.1f} exceeds "
            f"{LOG_LIK_SPREAD_MAX}; posterior underflow"
        )
    w = np.exp(log_lik - top)
    return w / w.sum(axis=-1, keepdims=True)


def price_schedule(pi: np.ndarray, family: PayoffFamily) -> np.ndarray:
    """Date-1 price curve P(x) = sum_i pi_i eta(x, s_i) for posterior weights pi.

    Accepts a single weight vector (returns length n) or a batch (n_paths, I)
    (returns (n_paths, n)).
    """
    pi = np.asarray(pi, dtype=float)
    if pi.shape[-1] != family.I:
        raise ValueError(f"{_ERR}: posterior length must equal I={family.I}")
    return pi @ family.eta
