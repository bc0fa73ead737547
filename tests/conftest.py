"""Shared fixtures: a default grid, unit noise, and the two-signal families.

The shared pieces (the solve, demand assembly) are session-scoped so the
suite pays for them once.  Also the test-only oracles: the binary Gauss-Hermite
moments, Monte Carlo draws and moments of the canonical posterior, the
order-flow path estimator of the impact kernel, and a counter of random-block
generators.
"""

import math
import sys

import numpy as np
import pytest

from adkyle import (
    Equilibrium,
    NoiseProfile,
    build_canonical_kernel,
    build_state_grid,
    equilibrium_demand,
    make_payoff_family,
    prior_mixture,
    solve_alpha_star,
)
import adkyle._rng
from adkyle._rng import FLOW_STATISTIC, derive_seed, standard_normal_matrix
from adkyle.kernel import centering_matrix
from adkyle.orderflow import PATH_BLOCK_SIZE, flow_posterior
from adkyle.posterior import _check_alpha_bar

# Exact fixed point of the binary moment equation: the scaled-posterior map
# for two signals is stationary at sqrt(2).
ALPHA_STAR_BINARY = math.sqrt(2.0)

MIN_QUAD_NODES = 64
DEFAULT_QUAD_NODES = 200


@pytest.fixture(scope="session")
def grid():
    return build_state_grid(-8.0, 8.0, 401)


@pytest.fixture(scope="session")
def unit_noise(grid):
    return NoiseProfile(sigma=np.ones(grid.n))


@pytest.fixture(scope="session")
def mean_shift_family(grid):
    return make_payoff_family(
        "gaussian_mean_shift", {"means": [-1.0, 1.0], "sd": 1.0}, grid
    )


@pytest.fixture(scope="session")
def variance_family(grid):
    return make_payoff_family("gaussian_variance", {"mu": 0.0, "sds": [1.0, 1.5]}, grid)


@pytest.fixture(scope="session")
def skew_family(grid):
    return make_payoff_family("skew_normal", {"shapes": [4.0, -4.0]}, grid)


@pytest.fixture(scope="session")
def mean_shift_kernel(mean_shift_family, unit_noise, grid):
    return build_canonical_kernel(mean_shift_family, unit_noise, grid)


def exact_binary_equilibrium(kern):
    """Equilibrium object at the exact binary root, bypassing the solve."""
    return Equilibrium(alpha_star=ALPHA_STAR_BINARY, I=kern.I, phi_residual=0.0)


def candidate_demand(kern, family, noise):
    """Demand rows at the binary root, built as equilibrium_demand builds them.

    The same operations in the same order, so the rows match equilibrium_demand's
    bit for bit; but the kernel need not be exchangeable, for tests that only
    need candidate rows, not an equilibrium.
    """
    scale = ALPHA_STAR_BINARY / math.sqrt(kern.c)
    return scale * np.square(noise.sigma) * (family.eta - prior_mixture(family))


def statistic_shocks(w_tilde, noise, grid, seed, n_paths):
    """(n_paths, n-1) shocks whose projections are the order-flow statistic's draws.

    With A = sigma sqrt(h) (W_tilde / sigma^2)[:, :-1] and A^T = Q R, the shocks
    z @ Q^T project to z @ Q^T @ A^T = z @ R, the noise that flow_posterior adds
    to each path's log-likelihoods.  A reference that filters full increments
    built on these shocks must match flow_posterior to rounding.
    """
    f = (w_tilde / np.square(noise.sigma))[:, :-1]
    q, _ = np.linalg.qr((noise.sigma[:-1] * math.sqrt(grid.h) * f).T)
    z = standard_normal_matrix(derive_seed(seed, *FLOW_STATISTIC), n_paths, len(w_tilde),
                               PATH_BLOCK_SIZE)
    return z @ q.T


def impact_from_paths(x_values, y_values, w_star, family, noise, grid, n_paths, seed,
                      conditioned_on=None):
    """Path estimator of impact_surface: its mean and standard error over order-flow paths.

    Each truth t trades w_star[t] on the same draws of the order-flow statistic
    (common random numbers), and the market maker's posterior pi on each path
    gives a~^T C b~ with C = diag(pi) - pi pi^T.  Per path these are averaged
    over the truths (all of them, or conditioned_on alone).  Any demand works,
    not only an equilibrium one; one path has a zero standard error.
    """
    ix = [grid.node(float(x)) for x in x_values]
    iy = [grid.node(float(y)) for y in y_values]
    a, b = family.eta[:, ix], w_star[:, iy] / np.square(noise.sigma[iy])
    a, b = a - a.mean(axis=0), b - b.mean(axis=0)
    truths = range(family.I) if conditioned_on is None else [conditioned_on]
    per_path = np.zeros((n_paths, len(ix), len(iy)))
    for t in truths:
        pi = flow_posterior(w_star, noise, grid, seed, n_paths, w_row=w_star[t])
        per_path += (np.einsum("mi,ik,il->mkl", pi, a, b)
                     - (pi @ a)[:, :, None] * (pi @ b)[:, None, :]) / len(truths)
    if n_paths == 1:
        return per_path[0], np.zeros_like(per_path[0])
    return per_path.mean(axis=0), per_path.std(axis=0, ddof=1) / math.sqrt(n_paths)


@pytest.fixture(scope="session")
def mean_shift_demand(mean_shift_kernel, mean_shift_family, unit_noise):
    eq = exact_binary_equilibrium(mean_shift_kernel)
    return eq, equilibrium_demand(eq, mean_shift_kernel, mean_shift_family, unit_noise)


@pytest.fixture(scope="session")
def solved_mean_shift(mean_shift_kernel):
    return solve_alpha_star(mean_shift_kernel.I)


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
    result is exactly (1/2, 1/4).  An oracle independent of the library's
    true_belief_moments.
    """
    if n_nodes < MIN_QUAD_NODES:
        raise ValueError(f"n_nodes={n_nodes} below minimum {MIN_QUAD_NODES}")
    _check_alpha_bar(alpha_bar)
    # scipy's Hermite nodes stay finite for large n_nodes where the numpy
    # polynomial version overflows
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


def softmax(logits):
    """Row-wise softmax shifted by numpy's max: the reference posterior_weights must reproduce."""
    logits = np.asarray(logits, dtype=float)
    w = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def sample_posterior(alpha_bar, I, true_index, noise):
    """(logits, q): canonical posterior draws on standard normals xi, (I,) or (m, I).

    logits = alpha_bar Q xi + alpha_bar^2 e_t and q = softmax(logits); a scalar
    xi is broadcast, so xi = 0 with alpha_bar = 1, I = 2, t = 0 gives q_t = e / (1 + e).
    """
    if I < 2 or not 0 <= true_index < I:
        raise ValueError(f"sample_posterior: need I >= 2 and true_index in [0, I), "
                         f"got I={I}, true_index={true_index}")
    _check_alpha_bar(alpha_bar)
    xi = np.asarray(noise, dtype=float)
    xi = np.broadcast_to(xi, (I,)) if xi.ndim < 2 else xi
    logits = alpha_bar * (xi - xi.mean(axis=-1, keepdims=True))
    logits[..., true_index] += alpha_bar * alpha_bar
    return logits, softmax(logits)


def true_belief(alpha_bar, noise):
    """q_0 per row of an (m, I) noise matrix, truth in column 0, without a softmax.

    q_0 = 1 / (1 + odds) with odds = sum_{j > 0} exp(alpha_bar (xi_j - xi_0) -
    alpha_bar^2), an exponent at most (xi_j - xi_0)^2 / 4: no overflow, no shift.
    """
    noise = np.asarray(noise, dtype=float)
    if noise.ndim != 2:
        raise ValueError("true_belief: need an (n_samples, I) noise matrix")
    z = alpha_bar * (noise[:, 1:] - noise[:, :1]) - alpha_bar * alpha_bar
    return 1.0 / (1.0 + np.exp(z).sum(axis=1))


def moments_from_noise(alpha_bar, true_index, noise):
    """(E[q], (Q cbar Q)_tt, SE of E[q]) over the draws, cbar = diag(E[q]) - E[q q^T].

    (Q cbar Q)_tt is the centered self-covariance in the equilibrium residual.
    Reusing one noise matrix across alpha_bar gives common random numbers.
    """
    _, q = sample_posterior(alpha_bar, np.shape(noise)[-1], true_index, noise)
    m1 = q.mean(axis=0)
    Q = centering_matrix(len(m1))
    qcq = Q @ (np.diag(m1) - q.T @ q / len(q)) @ Q
    return m1, float(qcq[true_index, true_index]), q.std(axis=0, ddof=1) / math.sqrt(len(q))


def count_block_generators(monkeypatch) -> list:
    """Record the arguments of every random-block generator the package makes from now on.

    block_generator is patched in _rng and in every adkyle module that imported
    it by name, so each counter-based draw of the package lands in the list.
    """
    calls, real = [], adkyle._rng.block_generator

    def counted(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("adkyle") and getattr(module, "block_generator", None) is real:
            monkeypatch.setattr(module, "block_generator", counted)
    return calls
