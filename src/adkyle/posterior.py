"""Canonical posterior of the market maker and its Monte Carlo moments.

Conditional on the true signal s_t, the market maker's date-1 posterior over
the I signals collapses to a finite-dimensional law parametrized by a single
effective signal-to-noise number alpha_bar:

    logits = alpha_bar * Q xi + alpha_bar^2 * e_t,     xi ~ N(0, I_I),
    q      = softmax(logits),

where Q is the centering projector.  All equilibrium objects (the fixed-point
residual, information efficiency, price impact) are expectations of smooth
functionals of q, estimated here with counter-based streams so every number is
bitwise reproducible from a seed.  The residual and the efficiency need only
the true-signal entry q_t (true_belief); the full softmax and its moments
(moments_from_noise) remain the general path and the independent check.

rival_odds and true_belief take the truth to be column 0 of the noise.  The xi
are i.i.d., so the law of the posterior given s_t is exchangeable across the
signals: choosing another true index only relabels the noise columns and
leaves every expectation of q_t unchanged.  sample_posterior and
moments_from_noise keep an explicit true index, as the softmax oracle.

Order-flow blocks take their extremes over the signal axis as column sweeps
(signal_sweep): numpy reduces a short last axis with a separate inner loop per
row, which costs about 30 times the sweep on a 4096 x 2 block.  softmax keeps
numpy's max, because on one (n_samples, I) array each strided column pass
streams the whole array again: the sweep breaks even near I = 16 and takes four
times as long at I = 64.  Both keep numpy's sum as the normaliser, whose
eight-lane pairwise order a column sum would not reproduce at I >= 8, so the
CSVs stay byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
        logits: Centered Gaussian part alpha_bar * Q xi, shape (I,) or (m, I),
            plus the information drift alpha_bar^2 on the true index.
        q: Softmax of logits along the last axis; rows sum to 1.
    """

    logits: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class MomentEstimates:
    """Monte Carlo moments of the canonical posterior given the true signal.

    Attributes:
        m1: E[q], length I.
        qcq_diag: (Q cbar Q)[t, t] at the true index t, with cbar the
            expected posterior covariance diag(m1) - E[q q^T]; the centered
            self-covariance that enters the equilibrium residual.
        std_err_m1: Per-component standard error of m1.
        n_samples: Number of Monte Carlo draws used.
    """

    m1: np.ndarray = field(repr=False)
    qcq_diag: float = 0.0
    std_err_m1: np.ndarray = field(repr=False, default=None)
    n_samples: int = 0


def signal_sweep(extreme: np.ufunc, a: np.ndarray) -> np.ndarray:
    """extreme.reduce(a, axis=-1) for np.maximum or np.minimum, one column at a time.

    Each of the I - 1 steps is one ufunc call over every row at once.  The
    value is numpy's; only the sign of a zero extreme can differ, where a row
    ties +0.0 with -0.0 and numpy (eight lanes from I = 9) meets them in
    another order.
    """
    out = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        extreme(out, a[..., j], out=out)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; never overflows."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    w = np.exp(shifted)
    return w / w.sum(axis=-1, keepdims=True)


def _check_alpha_bar(alpha_bar: float) -> None:
    """alpha_bar enters squared: a finite value whose square overflows gives NaN moments."""
    if alpha_bar < 0.0 or not math.isfinite(alpha_bar * alpha_bar):
        raise ValueError(f"{_ERR}: alpha_bar must be >= 0 with a finite square")


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
    _check_alpha_bar(alpha_bar)
    xi = np.broadcast_to(np.asarray(noise, dtype=float), (I,)) if np.ndim(noise) < 2 else np.asarray(noise, dtype=float)
    if xi.shape[-1] != I:
        raise ValueError(f"{_ERR}: noise last dimension must equal I={I}")
    logits = alpha_bar * (xi - xi.mean(axis=-1, keepdims=True))
    logits[..., true_index] += alpha_bar * alpha_bar
    return PosteriorSample(logits, softmax(logits))


def rival_odds(alpha_bar: float, noise: np.ndarray) -> np.ndarray:
    """Posterior odds against the true signal (column 0), (1 - q_0) / q_0, per noise row.

    With sample_posterior's logits these are

        sum_{j > 0} exp(alpha_bar (xi_j - xi_0) - alpha_bar^2),

    whose exponent is at most (xi_j - xi_0)^2 / 4 for every alpha_bar: finite
    draws cannot overflow, so no max shift is needed.  The rivals are summed
    one column at a time, so only two m-vectors are allocated.
    """
    noise = np.asarray(noise, dtype=float)
    if noise.ndim != 2 or noise.shape[1] == 0:
        raise ValueError(f"{_ERR}: need an (n_samples, I) noise matrix")
    odds, z = np.zeros(noise.shape[0]), np.empty(noise.shape[0])
    for j in range(1, noise.shape[1]):
        np.subtract(noise[:, j], noise[:, 0], out=z)
        z *= alpha_bar
        z -= alpha_bar * alpha_bar
        odds += np.exp(z, out=z)
    return odds


def true_belief(alpha_bar: float, noise: np.ndarray) -> np.ndarray:
    """Posterior mass q_0 on the true signal (column 0) per noise row, without a softmax."""
    return 1.0 / (1.0 + rival_odds(alpha_bar, noise))


def mean_and_std_err(draws: np.ndarray) -> tuple[float, float]:
    """Sample mean of per-draw values and its standard error std / sqrt(m) (0 for m = 1)."""
    std_err = float(draws.std(ddof=1) / math.sqrt(draws.size)) if draws.size > 1 else 0.0
    return float(draws.mean()), std_err


def moment_noise(I: int, n_samples: int, seed: int) -> np.ndarray:
    """The seed's (n_samples, I) standard-normal matrix behind every moment estimate.

    Raises:
        ValueError: if n_samples < MIN_MOMENT_SAMPLES (estimates below that
            size are too noisy for the fixed-point solve to bracket reliably).
    """
    if n_samples < MIN_MOMENT_SAMPLES:
        raise ValueError(
            f"{_ERR}: n_samples={n_samples} below minimum {MIN_MOMENT_SAMPLES}"
        )
    return standard_normal_matrix(seed, int(n_samples), I)


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
        qcq_diag=float(qcq[true_index, true_index]),
        std_err_m1=std_err,
        n_samples=m,
    )


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
    _check_alpha_bar(alpha_bar)
    # scipy's Hermite nodes stay finite for large n_nodes where the numpy
    # polynomial version overflows; imported here, as nothing else needs scipy.
    from scipy.special import roots_hermite
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
