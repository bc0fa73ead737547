"""Cross-asset price impact, information efficiency, and invariance checks.

The price-pressure kernel of the equilibrium is

    Lambda(x, y) = (1/sigma(y)^2) E[ Cov_post( eta(x, .), W(y, .) ) ],

the marginal move of the date-1 price of claim x per unit of extra flow into
claim y.  The covariance is over the market maker's posterior on the I signal
atoms, evaluated exactly on each simulated path, with the realized signal
drawn uniformly unless conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import block_generator, derive_seed
from .kernel import CanonicalKernel, build_canonical_kernel, centering_matrix
from .model import NoiseProfile, PayoffFamily, StateGrid, trapezoid
from .orderflow import PATH_BLOCK_SIZE, iter_shock_blocks, log_likelihoods, posterior_weights
from .posterior import DEFAULT_MOMENT_SAMPLES, posterior_moments
from .equilibrium import solve_alpha_star

_ERR = "adkyle.analytics"

DEFAULT_IMPACT_PATHS = 20_000
SUBGRID_DEFAULT = 21
SUBGRID_MIN = 9
SWEEP_SIZES = (2, 4, 6, 8)


@dataclass(frozen=True)
class ImpactEstimate:
    """Monte Carlo estimate of Lambda at one (x, y) pair."""

    x: float
    y: float
    value: float
    std_err: float
    n_paths: int
    conditioned_on: int | None = None


@dataclass(frozen=True)
class EfficiencyRow:
    """One row of the efficiency sweep: equilibrium root and E[q_true] at it."""

    I: int
    alpha_star: float
    ie: float
    std_err: float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class InvarianceReport:
    """Base-vs-transformed pipeline outputs for the noise-scaling experiment."""

    scale: float
    alpha_star_base: float
    alpha_star_scaled: float
    alpha_raw_base: float
    alpha_raw_scaled: float
    ie_base: float
    ie_scaled: float


def node_index(grid: StateGrid, x: float) -> int:
    """Index of the grid node equal to x (within round-off); error otherwise."""
    idx = grid.nearest(x)
    if abs(grid.nodes[idx] - x) > 1e-9 * (grid.x_max - grid.x_min):
        raise ValueError(f"{_ERR}: {x} is not a grid node")
    return idx


def _signal_stream(seed: int, I: int, n_paths: int):
    """Per-path uniform signal draws, blocked identically to the shock stream."""
    sig_seed = derive_seed(seed, 1)
    out = np.empty(n_paths, dtype=np.int64)
    offset = 0
    block_id = 0
    while offset < n_paths:
        m = min(PATH_BLOCK_SIZE, n_paths - offset)
        out[offset : offset + m] = block_generator(sig_seed, block_id).integers(0, I, size=m)
        offset += m
        block_id += 1
    return out


def _posterior_blocks(
    w_star: np.ndarray,
    family: PayoffFamily,
    noise: NoiseProfile,
    grid: StateGrid,
    n_paths: int,
    seed: int,
    conditioned_on: int | None,
):
    """Yield (slice, pi) posterior blocks for paths with mixed true signals."""
    I = family.I
    signals = (
        np.full(n_paths, int(conditioned_on), dtype=np.int64)
        if conditioned_on is not None
        else _signal_stream(seed, I, n_paths)
    )
    h = grid.h
    drift_all = w_star[:, :-1] * h
    scale = noise.sigma[:-1] * math.sqrt(h)
    for offset, shocks in iter_shock_blocks(grid, seed, n_paths):
        m = shocks.shape[0]
        sl = slice(offset, offset + m)
        inc = drift_all[signals[sl]] + scale * shocks
        yield sl, posterior_weights(log_likelihoods(w_star, inc, noise, grid))


def cross_price_impact(
    x: float,
    y: float,
    w_star: np.ndarray,
    family: PayoffFamily,
    noise: NoiseProfile,
    grid: StateGrid,
    n_paths: int = DEFAULT_IMPACT_PATHS,
    seed: int = 0,
    conditioned_on: int | None = None,
) -> ImpactEstimate:
    """Estimate Lambda(x, y) at grid nodes x, y.

    Per path the posterior covariance between the payoff coordinate eta(x, .)
    and the demand coordinate W(y, .) is computed exactly over the I atoms;
    the only Monte Carlo averaging is over order-flow paths (and the uniform
    signal draw unless conditioned_on pins it).
    """
    ix, iy = node_index(grid, x), node_index(grid, y)
    w_star = np.asarray(w_star, dtype=float)
    eta_x = family.eta[:, ix]
    w_y = w_star[:, iy]
    inv_var_y = 1.0 / float(noise.sigma[iy]) ** 2

    n_paths = int(n_paths)
    vals = np.empty(n_paths)
    for sl, pi in _posterior_blocks(w_star, family, noise, grid, n_paths, seed, conditioned_on):
        cov = pi @ (eta_x * w_y) - (pi @ eta_x) * (pi @ w_y)
        vals[sl] = inv_var_y * cov
    std_err = float(vals.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    return ImpactEstimate(
        x=float(grid.nodes[ix]),
        y=float(grid.nodes[iy]),
        value=float(vals.mean()),
        std_err=std_err,
        n_paths=n_paths,
        conditioned_on=conditioned_on,
    )


def impact_surface(
    x_values: np.ndarray,
    y_values: np.ndarray,
    w_star: np.ndarray,
    family: PayoffFamily,
    noise: NoiseProfile,
    grid: StateGrid,
    n_paths: int = DEFAULT_IMPACT_PATHS,
    seed: int = 0,
    conditioned_on: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Lambda estimates on a rectangle of node pairs.

    Returns (values, std_errs), each shaped (len(x_values), len(y_values)).
    All pairs share the same simulated paths, so rows/columns are directly
    comparable (common random numbers).
    """
    ix = np.array([node_index(grid, float(x)) for x in np.asarray(x_values)])
    iy = np.array([node_index(grid, float(y)) for y in np.asarray(y_values)])
    w_star = np.asarray(w_star, dtype=float)
    eta_x = family.eta[:, ix]          # I x K
    w_y = w_star[:, iy]                # I x L
    inv_var_y = 1.0 / np.square(noise.sigma[iy])  # L

    n_paths = int(n_paths)
    s1 = np.zeros((len(ix), len(iy)))
    s2 = np.zeros((len(ix), len(iy)))
    for sl, pi in _posterior_blocks(w_star, family, noise, grid, n_paths, seed, conditioned_on):
        cross = np.einsum("mi,ik,il->mkl", pi, eta_x, w_y)
        cov = cross - (pi @ eta_x)[:, :, None] * (pi @ w_y)[:, None, :]
        cov *= inv_var_y[None, None, :]
        s1 += cov.sum(axis=0)
        s2 += np.square(cov).sum(axis=0)
    mean = s1 / n_paths
    var = np.maximum(s2 - n_paths * np.square(mean), 0.0) / max(n_paths - 1, 1)
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


def information_efficiency(
    alpha_bar: float,
    I: int,
    n_samples: int = DEFAULT_MOMENT_SAMPLES,
    seed: int = 0,
    true_index: int = 0,
) -> tuple[float, float]:
    """E[q_true] at the given signal-to-noise number, with standard error.

    At alpha_bar = 0 prices carry no information and the value is 1/I; it
    increases toward 1 as alpha_bar grows.
    """
    mom = posterior_moments(alpha_bar, I, true_index, n_samples=n_samples, seed=seed)
    return float(mom.m1[true_index]), float(mom.std_err_m1[true_index])


def identity_kernel(I: int) -> CanonicalKernel:
    """Canonical kernel of an orthonormal payoff family (K = identity)."""
    eye = np.eye(I)
    return CanonicalKernel(
        K=eye, Q=centering_matrix(I), c=1.0, L=eye, L_pinv=eye, exchangeable=True
    )


def efficiency_sweep(
    sizes: tuple[int, ...] = SWEEP_SIZES,
    n_samples: int = DEFAULT_MOMENT_SAMPLES,
    master_seed: int = 0,
) -> list[EfficiencyRow]:
    """Equilibrium root and information efficiency across signal counts.

    Each I gets its own derived seed, and the reported row is bitwise equal to
    running the solve and the efficiency estimate standalone with that seed.
    """
    rows = []
    for I in sizes:
        seed = derive_seed(master_seed, I)
        eq = solve_alpha_star(identity_kernel(I), n_samples=n_samples, seed=seed)
        ie, std_err = information_efficiency(eq.alpha_star, I, n_samples=n_samples, seed=seed)
        rows.append(
            EfficiencyRow(
                I=I,
                alpha_star=eq.alpha_star,
                ie=ie,
                std_err=std_err,
                n_samples=int(n_samples),
                seed=seed,
            )
        )
    return rows


def invariance_experiment(
    family: PayoffFamily,
    noise: NoiseProfile,
    grid: StateGrid,
    scale: float = 2.0,
    n_samples: int = DEFAULT_MOMENT_SAMPLES,
    seed: int = 0,
) -> InvarianceReport:
    """Scale the noise intensity and re-run the pipeline.

    The canonical root and information efficiency depend only on (I, seed),
    so they are unchanged -- bitwise, thanks to common random numbers -- while
    the raw demand coefficient rescales by the noise factor (exactly, for
    power-of-two factors).
    """
    if scale <= 0.0:
        raise ValueError(f"{_ERR}: scale must be positive")
    kern_base = build_canonical_kernel(family, noise, grid)
    kern_scaled = build_canonical_kernel(family, NoiseProfile(scale * noise.sigma), grid)
    eq_base = solve_alpha_star(kern_base, n_samples=n_samples, seed=seed)
    eq_scaled = solve_alpha_star(kern_scaled, n_samples=n_samples, seed=seed)
    ie_seed = derive_seed(seed, 2)
    ie_base, _ = information_efficiency(eq_base.alpha_star, family.I, n_samples=n_samples, seed=ie_seed)
    ie_scaled, _ = information_efficiency(eq_scaled.alpha_star, family.I, n_samples=n_samples, seed=ie_seed)
    return InvarianceReport(
        scale=float(scale),
        alpha_star_base=eq_base.alpha_star,
        alpha_star_scaled=eq_scaled.alpha_star,
        alpha_raw_base=eq_base.alpha_raw,
        alpha_raw_scaled=eq_scaled.alpha_raw,
        ie_base=ie_base,
        ie_scaled=ie_scaled,
    )
