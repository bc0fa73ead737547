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
    """Gram matrix of a payoff family, its centering and its scale.

    Attributes:
        K: I x I noise-variance-weighted Gram matrix int sigma^2 eta eta^T,
            exactly symmetric.
        Q: Centering projector I - (1/I) 11^T.
        c: Exchangeability scale trace(QKQ) / (I - 1); it scales with sigma^2.
        exchangeable: True when max|QKQ - cQ| <= EXCHANGEABILITY_TOL * c.
    """

    K: np.ndarray = field(repr=False)
    Q: np.ndarray = field(repr=False)
    c: float = 0.0
    exchangeable: bool = False

    @property
    def I(self) -> int:
        return self.K.shape[0]


def gram_matrix(family: PayoffFamily, noise: NoiseProfile, grid: StateGrid) -> np.ndarray:
    """Pairwise inner products of the payoff rows weighted by quad_weights * sigma^2.

    Entry (i, j) sums the products (eta_i * eta_j) * (quad_weights * sigma^2)
    along its own row.  eta_i * eta_j == eta_j * eta_i exactly, so the result
    is bitwise symmetric.
    """
    eta = family.eta
    if eta.shape[1] != grid.n or noise.sigma.shape != (grid.n,):
        raise ValueError(f"{_ERR}: length mismatch against grid with n={grid.n}")
    return np.sum((eta[:, None] * eta[None]) * (grid.quad_weights * np.square(noise.sigma)),
                  axis=-1)


def centering_matrix(I: int) -> np.ndarray:
    """Projector Q = I - (1/I) 11^T onto the zero-sum subspace."""
    if I < 2:
        raise ValueError(f"{_ERR}: need at least two signals")
    return np.eye(I) - 1.0 / I


def exchangeability_scale(K: np.ndarray) -> tuple[float, bool]:
    """Best scalar c with QKQ ~ cQ, and whether the fit is within EXCHANGEABILITY_TOL * c.

    c = trace(QKQ) / trace(Q); for I = 2 this is (K11 - 2 K12 + K22) / 2 and
    the fit is always exact (the centered space is one-dimensional).  The test
    is relative, so rescaling the noise does not change the verdict.
    """
    K = np.asarray(K, dtype=float)
    I = K.shape[0]
    Q = centering_matrix(I)
    M = Q @ K @ Q
    c = float(np.trace(M) / (I - 1))
    exchangeable = bool(np.max(np.abs(M - c * Q)) <= EXCHANGEABILITY_TOL * c)
    return c, exchangeable


def build_canonical_kernel(
    family: PayoffFamily, noise: NoiseProfile, grid: StateGrid
) -> CanonicalKernel:
    """Assemble the canonical kernel (Gram, centering, scale)."""
    K = gram_matrix(family, noise, grid)
    c, exchangeable = exchangeability_scale(K)
    return CanonicalKernel(K=K, Q=centering_matrix(family.I), c=c, exchangeable=exchangeable)
