"""Canonical posterior of the market maker and its Monte Carlo moments.

Conditional on the true signal s_t, the market maker's date-1 posterior over
the I signals collapses to a finite-dimensional law parametrized by a single
effective signal-to-noise number alpha_bar:

    logits = alpha_bar * Q xi + alpha_bar^2 * e_t,     xi ~ N(0, I_I),
    q      = softmax(logits),

where Q is the centering projector.  All equilibrium objects (the fixed-point
residual, information efficiency, price impact) are expectations of smooth
functionals of q, estimated here with counter-based streams so every number is
bitwise reproducible from a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_hermite

from ._rng import standard_normal_matrix
from .kernel import centering_matrix

_ERR = "adkyle.posterior"

MIN_MOMENT_SAMPLES = 10_000
DEFAULT_MOMENT_SAMPLES = 200_000
MIN_QUAD_NODES = 64
DEFAULT_QUAD_NODES = 200


@dataclass(frozen=True)
class PosteriorSample:
    """One draw (or a batch of draws) of the canonical posterior.

    Attributes:
        alpha_bar: Effective signal-to-noise number used for the draw.
        true_index: Index of the realized signal.
        logits: Centered Gaussian part alpha_bar * Q xi, shape (I,) or (m, I),
            plus the information drift alpha_bar^2 on the true index.
        q: Softmax of logits along the last axis; rows sum to 1.
    """

    alpha_bar: float
    true_index: int
    logits: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class MomentEstimates:
    """Monte Carlo moments of the canonical posterior given the true signal.

    Attributes:
        m1: E[q], length I.
        cbar: Expected posterior covariance diag(m1) - E[q q^T].
        qcq_diag: (Q cbar Q)[t, t] at the true index t; the centered
            self-covariance that enters the equilibrium residual.
        std_err_m1: Per-component standard error of m1.
        n_samples: Number of Monte Carlo draws used.
    """

    m1: np.ndarray = field(repr=False)
    cbar: np.ndarray = field(repr=False)
    qcq_diag: float = 0.0
    std_err_m1: np.ndarray = field(repr=False, default=None)
    n_samples: int = 0


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; never overflows."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    w = np.exp(shifted)
    return w / w.sum(axis=-1, keepdims=True)


def sample_posterior(
    alpha_bar: float, I: int, true_index: int, noise: np.ndarray
) -> PosteriorSample:
    """Map standard-normal noise to a canonical posterior draw.

    Args:
        alpha_bar: Effective signal-to-noise number, >= 0.
        I: Number of signals, >= 2.
        true_index: Realized signal index in [0, I).
        noise: Standard normals, shape (I,) for one draw or (m, I) for a
            batch.  A scalar is broadcast (noise=0 gives the mean posterior).

    Returns:
        PosteriorSample; with alpha_bar=1, noise=0, I=2, true_index=0 the
        belief on the true signal is e/(1+e) ~ 0.7311.
    """
    if I < 2:
        raise ValueError(f"{_ERR}: need at least two signals")
    if not 0 <= true_index < I:
        raise ValueError(f"{_ERR}: true_index {true_index} out of range for I={I}")
    if alpha_bar < 0.0 or not math.isfinite(alpha_bar):
        raise ValueError(f"{_ERR}: alpha_bar must be finite and >= 0")
    xi = np.broadcast_to(np.asarray(noise, dtype=float), (I,)) if np.ndim(noise) < 2 else np.asarray(noise, dtype=float)
    if xi.shape[-1] != I:
        raise ValueError(f"{_ERR}: noise last dimension must equal I={I}")
    logits = alpha_bar * (xi - xi.mean(axis=-1, keepdims=True))
    logits[..., true_index] += alpha_bar * alpha_bar
    return PosteriorSample(float(alpha_bar), int(true_index), logits, softmax(logits))


def moments_from_noise(
    alpha_bar: float, true_index: int, noise: np.ndarray
) -> MomentEstimates:
    """Posterior moments on a caller-supplied noise matrix.

    The same frozen (m, I) noise matrix can be reused across alpha_bar values,
    making the moments a deterministic, continuous function of alpha_bar
    (common random numbers).
    """
    noise = np.asarray(noise, dtype=float)
    if noise.ndim != 2:
        raise ValueError(f"{_ERR}: noise must be an (n_samples, I) matrix")
    m, I = noise.shape
    q = sample_posterior(alpha_bar, I, true_index, noise).q
    m1 = q.mean(axis=0)
    cbar = np.diag(m1) - (q.T @ q) / m
    Q = centering_matrix(I)
    qcq = Q @ cbar @ Q
    std_err = q.std(axis=0, ddof=1) / math.sqrt(m)
    return MomentEstimates(
        m1=m1,
        cbar=cbar,
        qcq_diag=float(qcq[true_index, true_index]),
        std_err_m1=std_err,
        n_samples=m,
    )


def posterior_moments(
    alpha_bar: float,
    I: int,
    true_index: int,
    n_samples: int = DEFAULT_MOMENT_SAMPLES,
    seed: int = 0,
) -> MomentEstimates:
    """Seed-deterministic Monte Carlo moments of the canonical posterior.

    Raises:
        ValueError: if n_samples < MIN_MOMENT_SAMPLES (estimates below that
            size are too noisy for the fixed-point solve to bracket reliably).
    """
    if n_samples < MIN_MOMENT_SAMPLES:
        raise ValueError(
            f"{_ERR}: n_samples={n_samples} below minimum {MIN_MOMENT_SAMPLES}"
        )
    noise = standard_normal_matrix(seed, int(n_samples), I)
    return moments_from_noise(alpha_bar, true_index, noise)


def binary_moments_quadrature(
    alpha_bar: float, n_nodes: int = DEFAULT_QUAD_NODES
) -> tuple[float, float]:
    """Gauss-Hermite values of the two binary posterior moments.

    For I = 2 the true-signal belief is sigmoid(Z) with
    Z ~ N(alpha_bar^2, 2 alpha_bar^2), so

        phi1 = E[sigmoid(Z)]                (posterior mass on the truth)
        phi2 = E[sigmoid(Z) sigmoid(-Z)]    (posterior variance term)

    are one-dimensional integrals; n_nodes Gauss-Hermite points resolve them
    to near machine precision for moderate alpha_bar.  At alpha_bar = 0 the
    result is exactly (1/2, 1/4).
    """
    if n_nodes < MIN_QUAD_NODES:
        raise ValueError(f"{_ERR}: n_nodes={n_nodes} below minimum {MIN_QUAD_NODES}")
    if alpha_bar < 0.0 or not math.isfinite(alpha_bar):
        raise ValueError(f"{_ERR}: alpha_bar must be finite and >= 0")
    # scipy's Hermite nodes stay finite for large n_nodes where the numpy
    # polynomial version overflows.
    x, w = roots_hermite(int(n_nodes))
    z = alpha_bar * alpha_bar + 2.0 * alpha_bar * x  # mu + sigma*sqrt(2)*x
    p = _sigmoid(z)
    s = w.sum()
    phi1 = float(np.dot(w, p) / s)
    phi2 = float(np.dot(w, p * _sigmoid(-z)) / s)
    return phi1, phi2


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
