"""Canonical kernel of a payoff family: Gram matrix, centering, scale.

The informational geometry of the game is summarized by the I x I Gram matrix
K[i][j] = int sigma^2 eta_i eta_j dx.  Centering by Q = I - (1/I) 11^T removes
the signal-independent component; a family is exchangeable when QKQ = cQ for a
scalar c > 0 (c scales with sigma^2), and then the demand
W_i = sigma^2 (alpha / sqrt(c)) (eta_i - eta_bar) has sigma-Gram alpha^2 Q:
the single number alpha drives the whole equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import NoiseProfile, PayoffFamily, StateGrid

_ERR = "adkyle.kernel"

EXCHANGEABILITY_TOL = 1e-6  # max|QKQ - cQ| allowed, relative to c
RANK_TOL = 1e-10            # c at or below RANK_TOL * max diag K carries no signal


@dataclass(frozen=True)
class CanonicalKernel:
    """Gram matrix of a payoff family and its scale.

    Attributes:
        K: I x I noise-variance-weighted Gram matrix int sigma^2 eta eta^T,
            exactly symmetric.
        c: Exchangeability scale trace(QKQ) / (I - 1); it scales with sigma^2.
        exchangeable: True when max|QKQ - cQ| <= EXCHANGEABILITY_TOL * c.
    """

    K: np.ndarray = field(repr=False)
    c: float = 0.0
    exchangeable: bool = False

    @property
    def I(self) -> int:
        return self.K.shape[0]


def gram_matrix(family: PayoffFamily, noise: NoiseProfile, grid: StateGrid) -> np.ndarray:
    """Pairwise inner products of the payoff rows weighted by quad_weights * sigma^2.

    Entry (i, j) sums the products (eta_i * eta_j) * (quad_weights * sigma^2)
    along its own row.  eta_i * eta_j == eta_j * eta_i exactly, so the result
    is bitwise symmetric.  K is built one row at a time, in O(I n) memory.
    """
    eta = family.eta
    if eta.shape[1] != grid.n or noise.sigma.shape != (grid.n,):
        raise ValueError(f"{_ERR}: length mismatch against grid with n={grid.n}")
    weights = grid.quad_weights * np.square(noise.sigma)
    return np.array([np.sum((row * eta) * weights, axis=-1) for row in eta])


def centering_matrix(I: int) -> np.ndarray:
    """Projector Q = I - (1/I) 11^T onto the zero-sum subspace."""
    if I < 2:
        raise ValueError(f"{_ERR}: need at least two signals")
    return np.eye(I) - 1.0 / I


def fit_scale(M: np.ndarray) -> tuple[float, float, bool]:
    """Fit cQ to a centred I x I Gram M: c = trace(M) / (I - 1), gap = max|M - cQ| and
    whether gap <= EXCHANGEABILITY_TOL * c (a NaN fails).  The test is relative, so
    rescaling the noise does not change the verdict."""
    I = len(M)
    c = float(np.trace(M)) / (I - 1)
    dev = M + c * (1.0 / I)  # M - cQ, without forming cQ
    np.fill_diagonal(dev, np.diag(M) - c * (1.0 - 1.0 / I))
    gap = float(np.abs(dev).max())
    return c, gap, bool(gap <= EXCHANGEABILITY_TOL * c)


def build_canonical_kernel(
    family: PayoffFamily, noise: NoiseProfile, grid: StateGrid
) -> CanonicalKernel:
    """Assemble the canonical kernel: K and the best scalar c with QKQ ~ cQ.

    c = trace(QKQ) / trace(Q); for I = 2 this is (K11 - 2 K12 + K22) / 2 and the
    fit is always exact (the centered space is one-dimensional).
    """
    K = gram_matrix(family, noise, grid)
    Q = centering_matrix(len(K))
    c, _, exchangeable = fit_scale(Q @ K @ Q)
    return CanonicalKernel(K=K, c=c, exchangeable=exchangeable)
