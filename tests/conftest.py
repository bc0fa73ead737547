"""Shared fixtures: a default grid, unit noise, and the two-signal families.

The shared pieces (the solve, demand assembly) are session-scoped so the
suite pays for them once.  Also the test-only oracles: the binary Gauss-Hermite
moments, Monte Carlo draws and moments of the canonical posterior, its dense E[C | t],
the order-flow path estimators of the impact kernel, the insider's expected utility
and its first-order terms, the option strip's legs from pairwise payoffs, the path
shocks simulate_increments draws, and a counter of random-block generators.
SUBCOMMANDS lists the eight CLI subcommands, each with the flags it needs.
"""

import math
import sys
from dataclasses import dataclass

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
from adkyle._rng import PATH_SHOCKS, derive_seed, standard_normal_matrix
from adkyle.kernel import centering_matrix
from adkyle.model import weighted_inner_product
from adkyle.orderflow import LOG_LIK_SPREAD_MAX, PATH_BLOCK_SIZE, posterior_weights
from adkyle.posterior import _check_alpha_bar, _truth_lines, _weigh

# Exact fixed point of the binary moment equation: the scaled-posterior map
# for two signals is stationary at sqrt(2).
ALPHA_STAR_BINARY = math.sqrt(2.0)

MIN_QUAD_NODES = 64
DEFAULT_QUAD_NODES = 200

MC_BLOCK_ROWS = 65536    # Philox block rows of the Monte Carlo references' normal draws
FLOW_STATISTIC = (0, 2)  # stream tag of the (n_paths, I) normals behind the order-flow statistic
FD_REL_EPS = 1e-3        # foc_from_paths' step: eps = FD_REL_EPS * |W|_inf / |v|_inf

SUBCOMMANDS = [
    ["solve"],
    ["simulate", "--paths", "2"],
    ["impact"],
    ["efficiency"],
    ["options"],
    ["verify-foc"],
    ["kernel", "dump"],
    ["posterior", "probe", "--alpha-bar", "1.0"],
]


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


def mean_and_std_err(draws: np.ndarray) -> tuple[float, float]:
    """Sample mean of per-draw values and its standard error std / sqrt(m) (0 for m = 1)."""
    std_err = float(draws.std(ddof=1) / math.sqrt(draws.size)) if draws.size > 1 else 0.0
    return float(draws.mean()), std_err


def path_shocks(seed, n_paths, grid):
    """The (n_paths, n-1) normals behind simulate_increments' paths for seed: its PATH_SHOCKS
    stream, drawn again."""
    return standard_normal_matrix(derive_seed(seed, *PATH_SHOCKS), n_paths, grid.n - 1,
                                  PATH_BLOCK_SIZE)


def flow_posterior(w_tilde, noise, grid, seed, n_paths, w_row):
    """The market maker's posterior pi, shape (n_paths, I), on the seed's FLOW_STATISTIC stream.

    The insider trades the demand row w_row on every path; the market maker prices
    with the candidate schedules w_tilde (I x n).  pi is the softmax of the
    log-likelihoods, the drift's projections plus the noise's, nu = shocks @ A.T ~
    N(0, A A^T) with A = (sigma sqrt(h)) * F, drawn as z @ R from I normals z per path
    and the QR factor R of A^T (A A^T is singular when the rows of W_tilde sum to zero,
    so it has no Cholesky factor).
    """
    if n_paths < 1:
        raise ValueError("flow_posterior: n_paths must be positive")
    f = (w_tilde / np.square(noise.sigma))[:, :-1]
    gram_diag = weighted_inner_product(w_tilde, w_tilde, noise, grid)
    mean = np.asarray(w_row, dtype=float)[:-1] * grid.h @ f.T - 0.5 * gram_diag
    r = np.linalg.qr((noise.sigma[:-1] * math.sqrt(grid.h) * f).T, mode="r")
    z = standard_normal_matrix(derive_seed(seed, *FLOW_STATISTIC), int(n_paths), len(f),
                               PATH_BLOCK_SIZE)
    return posterior_weights(mean + z @ r)


def expected_utility(w_row, w_tilde, family, true_index, noise, grid, n_paths, seed):
    """Path estimate of J(W) and its standard error, for any trade w_row and pricing w_tilde."""
    trade_w = grid.quad_weights * np.asarray(w_row, dtype=float)
    payoff, eta_w = family.eta[true_index] @ trade_w, family.eta @ trade_w
    pi = flow_posterior(w_tilde, noise, grid, seed, int(n_paths), w_row)
    return mean_and_std_err(payoff - pi @ eta_w)


@dataclass(frozen=True)
class PathFoc:
    """foc_from_paths' record: the path means of the terms, and their standard errors."""

    payoff_term: float
    adverse_selection_term: float
    impact_term: float
    analytic_total: float
    fd_total: float
    fd_epsilon: float
    diff: float
    std_err_diff: float
    std_err_fd: float
    std_err_ad: float
    std_err_impact: float


def foc_from_paths(w_row, v_row, w_tilde, family, true_index, noise, grid, n_paths, seed):
    """Path estimator of the first-order terms, for any trade w_row and pricing w_tilde.

    On each path of flow_posterior's draw: ad = pi . (eta @ v h) and impact =
    int W Cov_pi(eta(x, .), d) dx with d = <v, W_tilde_.>_sigma; the central difference
    shifts the same log-likelihoods by s = +- eps * F @ (v h), the left-point drift
    shift +- eps * v, so each side's price is pi . (u eta_side) / (pi . u) with
    u = e^(s - max s), no new softmax.  A stack (k, n) of directions gives k records.

    Raises:
        ValueError: if the spread of some eps * F @ (v h) over the signals exceeds
            LOG_LIK_SPREAD_MAX (pi . u could underflow).
    """
    w_row = np.asarray(w_row, dtype=float)
    v = np.atleast_2d(np.asarray(v_row, dtype=float))
    eps = FD_REL_EPS * np.max(np.abs(w_row)) / np.max(np.abs(v), axis=1)
    eta, gw, eta_t = family.eta, grid.quad_weights, family.eta[true_index]
    f = (w_tilde / np.square(noise.sigma))[:, :-1]
    d = np.array([[weighted_inner_product(v_k, row, noise, grid) for row in w_tilde] for v_k in v])
    shift = eps[:, None] * np.array([f @ (v_k[:-1] * grid.h) for v_k in v])
    worst = float(np.max(np.ptp(shift, axis=1)))
    if not worst <= LOG_LIK_SPREAD_MAX:  # NaN compares False
        raise ValueError(f"finite-difference shift spread {worst:.1f} exceeds "
                         f"{LOG_LIK_SPREAD_MAX}; posterior underflow")
    u_plus = np.exp(shift - shift.max(axis=1, keepdims=True))
    u_minus = np.exp(shift.min(axis=1, keepdims=True) - shift)
    pi = flow_posterior(w_tilde, noise, grid, seed, n_paths, w_row)
    eta_w = eta @ (gw * w_row)
    price_w = pi @ eta_w
    records = []
    for k, e in enumerate(eps):
        trade_v = gw * v[k]
        trade_plus, trade_minus = gw * (w_row + e * v[k]), gw * (w_row - e * v[k])
        ad = pi @ (eta @ trade_v)
        impact = pi @ (d[k] * eta_w) - price_w * (pi @ d[k])
        profit_p = trade_plus @ eta_t - (pi @ (u_plus[k] * (eta @ trade_plus))) / (pi @ u_plus[k])
        profit_m = (trade_minus @ eta_t
                    - (pi @ (u_minus[k] * (eta @ trade_minus))) / (pi @ u_minus[k]))
        fd = (profit_p - profit_m) / (2.0 * e)
        payoff = float(trade_v @ eta_t)
        analytic = payoff - ad - impact
        diff, std_err_diff = mean_and_std_err(analytic - fd)
        fd_total, std_err_fd = mean_and_std_err(fd)
        (ad, std_err_ad), (impact, std_err_impact) = map(mean_and_std_err, (ad, impact))
        records.append(PathFoc(payoff, ad, impact, float(analytic.mean()), fd_total, float(e),
                               diff, std_err_diff, std_err_fd, std_err_ad, std_err_impact))
    return records if np.ndim(v_row) == 2 else records[0]


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


def dense_posterior_covariance(alpha_bar, I, true_index=None):
    """E[C | t] of the canonical posterior as an I x I matrix, entry by entry from the three
    quadrature numbers of posterior_moments; kappa Q with true_index None.  The reference
    for its bilinear form: rows sum to 0 and the rivals are exchangeable, so C_tt = B,
    C_tj = -B / (I-1), C_jj = E[q_j] - E[q_j^2] and C_jk = -(C_jj + C_tj) / (I-2).
    """
    m0, m1, (f, f_sq) = _weigh(_truth_lines(alpha_bar, rival_square=True), I)
    not_true, b = float(f @ m0), float(f @ m1)
    c_tj = -b / (I - 1)
    c_jj = not_true / (I - 1) - float(f_sq @ m0)
    if true_index is None:
        return (b / (I - 1) + c_jj) * centering_matrix(I)
    c = np.full((I, I), -(c_jj + c_tj) / (I - 2) if I > 2 else 0.0)
    np.fill_diagonal(c, c_jj)
    c[true_index, :] = c[:, true_index] = c_tj
    c[true_index, true_index] = b
    return c


def strip_legs_oracle(strip, grid):
    """(puts, calls) of an option strip on the grid nodes, in long double.

    Each leg is the trapezoid over its strikes of density * payoff, from the full
    (strikes, n) payoff matrix: the O(n^2) evaluation bl_reconstruct replaced.
    """
    x = grid.nodes.astype(np.longdouble)

    def leg(strikes, density, payoff):
        k = strikes.astype(np.longdouble)[:, None]
        f = density.astype(np.longdouble)[:, None] * np.maximum(payoff(k), 0)
        return np.sum(np.diff(k, axis=0) * (f[1:] + f[:-1]) / 2, axis=0)

    return (leg(strip.put_strikes, strip.put_density, lambda k: k - x),
            leg(strip.call_strikes, strip.call_density, lambda k: x - k))


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
