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
from dataclasses import dataclass, field

import numpy as np

from ._rng import block_generator, block_sizes
from .model import NoiseProfile, PayoffFamily, StateGrid, weighted_inner_product
from .posterior import softmax

_ERR = "adkyle.orderflow"

LOG_LIK_SPREAD_MAX = 700.0  # beyond this, exp underflow erases posterior mass
PATH_BLOCK_SIZE = 4096      # paths per counter block; keeps block matrices small


@dataclass(frozen=True)
class Path:
    """One simulated order-flow path.

    Attributes:
        true_index: Signal realized for this path.
        increments: Length n-1 array of dY over each grid cell.
        y: Cumulative order flow at the nodes, y[0] = 0.
        shocks: Standard normals that drove the noise part (length n-1).
        seed: Seed used for the draw.
    """

    true_index: int
    increments: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    shocks: np.ndarray = field(repr=False)
    seed: int = 0


@dataclass(frozen=True)
class PathPosterior:
    """Market maker's pathwise inference: log-likelihoods and posterior weights."""

    log_lik: np.ndarray = field(repr=False)
    pi: np.ndarray = field(repr=False)


def young_integral(f: np.ndarray, omega: np.ndarray) -> float:
    """Left-point integral sum_j f(x_j) (omega(x_{j+1}) - omega(x_j)).

    First-order accurate for smooth integrands against smooth integrators;
    exact adaptedness is what matters for stochastic integrands.
    """
    f = np.asarray(f, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if f.shape != omega.shape or f.ndim != 1 or f.size < 2:
        raise ValueError(f"{_ERR}: f and omega must be equal-length 1-d arrays (>= 2)")
    return float(np.dot(f[:-1], np.diff(omega)))


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


def simulate_order_flow(
    w_row: np.ndarray,
    true_index: int,
    noise: NoiseProfile,
    grid: StateGrid,
    seed: int,
) -> Path:
    """Single order-flow path under the demand schedule of the realized signal."""
    increments, shocks = simulate_increments(w_row, noise, grid, seed, 1)
    y = np.concatenate([[0.0], np.cumsum(increments[0])])
    return Path(
        true_index=int(true_index),
        increments=increments[0],
        y=y,
        shocks=shocks[0],
        seed=int(seed),
    )


def pi_mm(w_tilde_row: np.ndarray, path: Path, noise: NoiseProfile, grid: StateGrid) -> float:
    """Market maker's integral int W_tilde / sigma^2 dY (left-point, adapted)."""
    f = np.asarray(w_tilde_row, dtype=float) / np.square(noise.sigma)
    return young_integral(f, path.y)


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
    gram_diag = np.array(
        [weighted_inner_product(row, row, noise, grid) for row in w_tilde]
    )
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


def pathwise_posterior(
    path: Path, w_tilde: np.ndarray, noise: NoiseProfile, grid: StateGrid
) -> PathPosterior:
    """Posterior over signals from one simulated path and candidate demands."""
    ll = log_likelihoods(w_tilde, path.increments[None, :], noise, grid)[0]
    pi = posterior_weights(ll[None, :])[0]
    return PathPosterior(log_lik=ll, pi=pi)


def price_schedule(pi: np.ndarray, family: PayoffFamily) -> np.ndarray:
    """Date-1 price curve P(x) = sum_i pi_i eta(x, s_i) for posterior weights pi.

    Accepts a single weight vector (returns length n) or a batch (n_paths, I)
    (returns (n_paths, n)).
    """
    pi = np.asarray(pi, dtype=float)
    if pi.shape[-1] != family.I:
        raise ValueError(f"{_ERR}: posterior length must equal I={family.I}")
    return pi @ family.eta
