"""Cross-asset price impact, the efficiency sweep, and invariance checks.

The price-pressure kernel of the equilibrium is

    Lambda(x, y) = (1/sigma(y)^2) E[ Cov_post( eta(x, .), W(y, .) ) ],

the marginal move of the date-1 price of claim x per unit of extra flow into
claim y.  The covariance is over the market maker's posterior on the I signal
atoms, evaluated exactly on each simulated path, with the realized signal
drawn uniformly unless conditioned.
"""

from __future__ import annotations

import numpy as np

from ._rng import SIGNALS, block_generator, blocks, derive_seed
from .kernel import CanonicalKernel, build_canonical_kernel, centering_matrix
from .model import NoiseProfile, PayoffFamily, StateGrid, trapezoid
from .orderflow import DEFAULT_PATHS, PATH_BLOCK_SIZE, posterior_blocks
from .equilibrium import Equilibrium, solve_alpha_star

_ERR = "adkyle.analytics"

SUBGRID_DEFAULT = 21
SUBGRID_MIN = 9
SWEEP_SIZES = (2, 4, 6, 8)


def _path_signals(seed: int, I: int, n_paths: int, conditioned_on: int | None) -> np.ndarray:
    """Per-path true signals: pinned, or uniform draws in path blocks from the SIGNALS stream."""
    if conditioned_on is not None:
        if not 0 <= conditioned_on < I:
            raise ValueError(f"{_ERR}: conditioned_on {conditioned_on} out of range for I={I}")
        return np.full(n_paths, int(conditioned_on), dtype=np.int64)
    out = np.empty(n_paths, dtype=np.int64)  # one allocation: a size that cannot fit fails here
    sig_seed = derive_seed(seed, *SIGNALS)
    for block_id, sl in blocks(n_paths, PATH_BLOCK_SIZE):
        out[sl] = block_generator(sig_seed, block_id).integers(0, I, size=sl.stop - sl.start)
    return out


def impact_surface(
    x_values: np.ndarray,
    y_values: np.ndarray,
    w_star: np.ndarray,
    family: PayoffFamily,
    noise: NoiseProfile,
    grid: StateGrid,
    n_paths: int = DEFAULT_PATHS,
    seed: int = 0,
    conditioned_on: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Lambda estimates on a rectangle of node pairs; one pair is the 1 x 1 rectangle.

    Returns (values, std_errs), each shaped (len(x_values), len(y_values)).
    All pairs share the same simulated paths, so rows/columns are directly
    comparable (common random numbers).  Per path the posterior covariance is
    exact over the I atoms; the only Monte Carlo averaging is over order-flow
    paths (and the uniform signal draw unless conditioned_on pins it).
    """
    ix = np.array([grid.node(float(x)) for x in np.asarray(x_values)])
    iy = np.array([grid.node(float(y)) for y in np.asarray(y_values)])
    w_star = np.asarray(w_star, dtype=float)
    # cov_m[k, l] = vec(C_m) . M[:, (k, l)] with C_m = diag(pi_m) - pi_m pi_m^T and
    # M[(i, j), (k, l)] = a_ik b_jl, so the path sums need only sum vec(C_m) and
    # S = sum vec(C_m) vec(C_m)^T (I^2 x I^2).  C_m annihilates constants, so a
    # and b are centred over the atoms: a flat column then adds no cancellation.
    I, a, b = family.I, family.eta[:, ix], w_star[:, iy] / np.square(noise.sigma[iy])
    a, b = a - a.mean(axis=0), b - b.mean(axis=0)
    m = (a[:, None, :, None] * b[None, :, None, :]).reshape(I * I, len(ix) * len(iy))
    n_paths = int(n_paths)
    c_sum, c_outer = np.zeros(I * I), np.zeros((I * I, I * I))
    signals = _path_signals(seed, I, n_paths, conditioned_on)
    for _, _, pi in posterior_blocks(w_star, noise, grid, seed, n_paths, signals=signals):
        c = (pi[:, :, None] * (np.eye(I) - pi[:, None, :])).reshape(len(pi), I * I)
        c_sum += c.sum(axis=0)
        c_outer += c.T @ c
    mean = (c_sum @ m).reshape(len(ix), len(iy)) / n_paths
    s2 = np.sum(m * (c_outer @ m), axis=0).reshape(mean.shape)
    if n_paths == 1:  # one path has no spread; s2 - mean^2 would leave rounding residue
        return mean, np.zeros_like(mean)
    var = np.maximum(s2 - n_paths * np.square(mean), 0.0) / (n_paths - 1)
    return mean, np.sqrt(var / n_paths)


def derivative_cross_impact(
    phi1: np.ndarray,
    phi2: np.ndarray,
    impact_fn,
    grid: StateGrid,
    n_sub: int = SUBGRID_DEFAULT,
) -> float:
    """Impact between two derivative books: D = int int phi1(x) Lambda(x,y) phi2(y) dy dx.

    Lambda is evaluated through impact_fn(x_nodes, y_nodes) -> matrix on a
    coarse n_sub x n_sub sub-grid spanning the supports of the strike
    densities phi1 (x axis) and phi2 (y axis); the double integral is a
    trapezoid rule on that sub-grid.  Lambda is smooth at the equilibrium, so
    a coarse rectangle already resolves the integral; the Monte Carlo cost of
    Lambda dominates, not the quadrature.

    Raises:
        ValueError: if n_sub < SUBGRID_MIN, or a support is too narrow to
            carry that many distinct nodes.
    """
    if n_sub < SUBGRID_MIN:
        raise ValueError(f"{_ERR}: sub-grid must be at least {SUBGRID_MIN} points per axis")
    phi1 = np.asarray(phi1, dtype=float)
    phi2 = np.asarray(phi2, dtype=float)
    if phi1.shape != (grid.n,) or phi2.shape != (grid.n,):
        raise ValueError(f"{_ERR}: strike densities must be grid functions of length {grid.n}")

    def support_indices(phi):
        nz = np.nonzero(phi)[0]
        if nz.size == 0:
            raise ValueError(f"{_ERR}: a strike density is identically zero")
        lo, hi = int(nz[0]), int(nz[-1])
        if hi - lo < n_sub - 1:
            raise ValueError(
                f"{_ERR}: support spans {hi - lo + 1} nodes, fewer than the "
                f"{n_sub}-point sub-grid"
            )
        return np.unique(np.round(np.linspace(lo, hi, n_sub)).astype(int))

    ix = support_indices(phi1)
    iy = support_indices(phi2)
    xs = grid.nodes[ix]
    ys = grid.nodes[iy]
    lam = np.asarray(impact_fn(xs, ys), dtype=float)
    if lam.shape != (len(xs), len(ys)):
        raise ValueError(f"{_ERR}: impact_fn returned shape {lam.shape}, expected {(len(xs), len(ys))}")
    integrand = phi1[ix][:, None] * lam * phi2[iy][None, :]
    return float(trapezoid(trapezoid(integrand, ys, axis=1), xs))


def identity_kernel(I: int) -> CanonicalKernel:
    """Canonical kernel of an orthonormal payoff family (K = identity)."""
    eye = np.eye(I)
    return CanonicalKernel(
        K=eye, Q=centering_matrix(I), c=1.0, L=eye, L_pinv=eye, exchangeable=True
    )


def efficiency_sweep() -> list[Equilibrium]:
    """Equilibrium root and information efficiency for each signal count in SWEEP_SIZES.

    Each record is the standalone solve of identity_kernel(I): its ie is
    E[q_true] from the solver's evaluation at its root, ie_std_err its error bound.
    """
    return [solve_alpha_star(identity_kernel(I)) for I in SWEEP_SIZES]


def invariance_experiment(
    family: PayoffFamily,
    noise: NoiseProfile,
    grid: StateGrid,
    scale: float = 2.0,
) -> tuple[Equilibrium, Equilibrium]:
    """Scale the noise intensity and re-run the pipeline: the (base, scaled) solves.

    The canonical root and information efficiency depend only on I, so they
    are unchanged -- bitwise, since the residual sees nothing else -- while
    the raw demand coefficient rescales by the noise factor (exactly, for
    power-of-two factors).  Each ie is the solve's own E[q_true] at its root.
    """
    if scale <= 0.0:
        raise ValueError(f"{_ERR}: scale must be positive")
    scaled = NoiseProfile(scale * noise.sigma)
    return (solve_alpha_star(build_canonical_kernel(family, noise, grid)),
            solve_alpha_star(build_canonical_kernel(family, scaled, grid)))
