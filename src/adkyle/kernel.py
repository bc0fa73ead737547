"""Canonical kernel of a payoff family: Gram matrix, centering, square root.

The informational geometry of the game is summarized by the I x I Gram matrix
K[i][j] = <eta_i, eta_j>_sigma.  Centering by Q = I - (1/I) 11^T removes the
signal-independent component; a family is exchangeable when QKQ = c Q for a
scalar c > 0, in which case a single effective signal-to-noise number alpha
sqrt(c) drives the whole equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import NoiseProfile, PayoffFamily, StateGrid

_ERR = "adkyle.kernel"

EXCHANGEABILITY_TOL = 1e-6
RANK_TOL = 1e-10


@dataclass(frozen=True)
class CanonicalKernel:
    """Gram matrix of a payoff family together with its canonical factors.

    Attributes:
        K: I x I sigma-weighted Gram matrix, exactly symmetric.
        Q: Centering projector I - (1/I) 11^T.
        c: Exchangeability scale trace(QKQ) / (I - 1).
        L: Symmetric PSD square root of K.
        L_pinv: Moore-Penrose pseudoinverse of L with spectral cutoff.
        exchangeable: True when max|QKQ - cQ| <= EXCHANGEABILITY_TOL.
    """

    K: np.ndarray = field(repr=False)
    Q: np.ndarray = field(repr=False)
    c: float = 0.0
    L: np.ndarray = field(repr=False, default=None)
    L_pinv: np.ndarray = field(repr=False, default=None)
    exchangeable: bool = False

    @property
    def I(self) -> int:
        return self.K.shape[0]


def gram_matrix(family: PayoffFamily, noise: NoiseProfile, grid: StateGrid) -> np.ndarray:
    """Pairwise sigma-weighted inner products of the payoff rows.

    Entry (i, j) is weighted_inner_product(eta_i, eta_j) bit for bit: the same
    products, each summed along its own row.  eta_i * eta_j == eta_j * eta_i
    exactly, so the result is bitwise symmetric.
    """
    eta = family.eta
    if eta.shape[1] != grid.n or noise.sigma.shape != (grid.n,):
        raise ValueError(f"{_ERR}: length mismatch against grid with n={grid.n}")
    return np.sum((eta[:, None] * eta[None]) * (grid.quad_weights / np.square(noise.sigma)),
                  axis=-1)


def centering_matrix(I: int) -> np.ndarray:
    """Projector Q = I - (1/I) 11^T onto the zero-sum subspace."""
    if I < 2:
        raise ValueError(f"{_ERR}: need at least two signals")
    return np.eye(I) - 1.0 / I


def exchangeability_scale(K: np.ndarray) -> tuple[float, bool]:
    """Best scalar c with QKQ ~ cQ, and whether the fit is exact within EXCHANGEABILITY_TOL.

    c = trace(QKQ) / trace(Q); for I = 2 this is (K11 - 2 K12 + K22) / 2 and
    the fit is always exact (the centered space is one-dimensional).
    """
    K = np.asarray(K, dtype=float)
    I = K.shape[0]
    Q = centering_matrix(I)
    M = Q @ K @ Q
    c = float(np.trace(M) / (I - 1))
    exchangeable = bool(np.max(np.abs(M - c * Q)) <= EXCHANGEABILITY_TOL)
    return c, exchangeable


def sqrt_and_pinv(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric PSD square root L of M and the pseudoinverse of L.

    Eigenvalues below RANK_TOL * lambda_max are treated as numerically zero in
    the pseudoinverse.  Raises for a kernel with no positive spectrum.
    """
    M = np.asarray(M, dtype=float)
    lam, U = np.linalg.eigh(0.5 * (M + M.T))
    lam = np.clip(lam, 0.0, None)
    lam_max = float(lam[-1])
    if lam_max <= 0.0:
        raise ValueError(f"{_ERR}: degenerate kernel, no positive eigenvalue")
    cutoff = RANK_TOL * lam_max
    root = np.sqrt(lam)
    inv_root = np.where(lam > cutoff, 1.0 / np.where(lam > cutoff, root, 1.0), 0.0)
    L = (U * root) @ U.T
    L_pinv = (U * inv_root) @ U.T
    return 0.5 * (L + L.T), 0.5 * (L_pinv + L_pinv.T)


def build_canonical_kernel(
    family: PayoffFamily, noise: NoiseProfile, grid: StateGrid
) -> CanonicalKernel:
    """Assemble the canonical kernel (Gram, centering, scale, square root)."""
    K = gram_matrix(family, noise, grid)
    Q = centering_matrix(family.I)
    c, exchangeable = exchangeability_scale(K)
    L, L_pinv = sqrt_and_pinv(K)
    return CanonicalKernel(K=K, Q=Q, c=c, L=L, L_pinv=L_pinv, exchangeable=exchangeable)
