"""Cross-asset price impact and the information-efficiency sweep.

The price-pressure kernel of the equilibrium is

    Lambda(x, y) = (1/sigma(y)^2) E[ Cov_post( eta(x, .), W(y, .) ) ],

the marginal move of the date-1 price of claim x per unit of extra flow into
claim y.  The covariance is over the market maker's posterior on the I signal
atoms, whose law at an equilibrium is canonical: Lambda is a closed form in its
E[C | t], with the realized signal t uniform unless conditioned.
"""

from __future__ import annotations

import math

import numpy as np

from .config import SUBGRID_DEFAULT, SUBGRID_MIN
from .kernel import fit_scale
from .model import NoiseProfile, PayoffFamily, StateGrid, trapezoid
from .posterior import QUAD_TOL, posterior_moments
from .equilibrium import Equilibrium, solve_alpha_star

_ERR = "adkyle.analytics"

SWEEP_SIZES = (2, 4, 6, 8)


def canonical_gram(w_star: np.ndarray, noise: NoiseProfile,
                   grid: StateGrid) -> tuple[np.ndarray, float, float]:
    """The demand's sigma-Gram G, alpha^2 = trace(G) / (I - 1) and gap = max|G - alpha^2 Q|.

    An equilibrium demand has G = alpha^2 Q up to its family's exchangeability, and then
    the posterior has the canonical law at alpha_bar = alpha.

    Raises:
        ValueError: a gap that fit_scale rejects, not an equilibrium demand.
    """
    w_star = np.asarray(w_star, dtype=float)
    gram = (w_star * (grid.quad_weights / np.square(noise.sigma))) @ w_star.T
    alpha_sq, gap, canonical = fit_scale(gram)
    if not canonical:
        raise ValueError(f"{_ERR}: demand Gram deviates from alpha^2 Q by {gap:.3e}; "
                         "only an equilibrium demand has the canonical posterior law")
    return gram, alpha_sq, gap


def spread_indices(lo: int, hi: int, n_sub: int) -> np.ndarray:
    """Up to n_sub node indices spread evenly over [lo, hi], ends included, rounded and
    deduplicated; from the range's node count on, every index in it is taken.

    The rounded points never decrease, so dropping adjacent repeats deduplicates them
    (np.unique would load numpy.ma).
    """
    idx = np.round(np.linspace(lo, hi, min(n_sub, hi - lo + 1))).astype(int)
    return idx[np.diff(idx, prepend=lo - 1) != 0]


def impact_surface(x_values: np.ndarray, y_values: np.ndarray, w_star: np.ndarray,
                   family: PayoffFamily, noise: NoiseProfile, grid: StateGrid,
                   conditioned_on: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Lambda in closed form on a rectangle of node pairs; one pair is the 1 x 1 rectangle.

    Returns (values, std_errs), each (len(x_values), len(y_values)).  At an equilibrium
    the sigma-Gram of the demand rows is alpha^2 Q, so given the truth t the posterior
    q has the canonical law at alpha_bar = alpha and E[Lambda] = a~^T E[C | t] b~, with
    C = diag(q) - q q^T and the columns a~ = eta(x, .), b~ = W(y, .) / sigma(y)^2
    centred over the atoms (C annihilates constants: centring only spares cancellation):
    posterior_moments' form of E[C | t], O(I) per pair.  t is uniform unless conditioned_on
    pins it.  std_errs is the quadrature bound 3 QUAD_TOL |a~|_1 |b~|_1.

    Raises:
        ValueError: conditioned_on out of range, or a demand whose Gram is not alpha^2 Q.
    """
    I = family.I
    if conditioned_on is not None and not 0 <= conditioned_on < I:
        raise ValueError(f"{_ERR}: conditioned_on {conditioned_on} out of range for I={I}")
    ix = np.array([grid.node(float(x)) for x in np.asarray(x_values)])
    iy = np.array([grid.node(float(y)) for y in np.asarray(y_values)])
    _, alpha_sq, _ = canonical_gram(w_star, noise, grid)
    a, b = family.eta[:, ix], np.asarray(w_star, dtype=float)[:, iy] / np.square(noise.sigma[iy])
    a, b = a - a.mean(axis=0), b - b.mean(axis=0)
    bound = 3.0 * QUAD_TOL * np.outer(np.abs(a).sum(axis=0), np.abs(b).sum(axis=0))
    return posterior_moments(math.sqrt(alpha_sq), I, conditioned_on)[1](a, b), bound


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
    a coarse rectangle already resolves the integral.

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
        return spread_indices(lo, hi, n_sub)

    ix = support_indices(phi1)
    iy = support_indices(phi2)
    xs = grid.nodes[ix]
    ys = grid.nodes[iy]
    lam = np.asarray(impact_fn(xs, ys), dtype=float)
    if lam.shape != (len(xs), len(ys)):
        raise ValueError(f"{_ERR}: impact_fn returned shape {lam.shape}, expected {(len(xs), len(ys))}")
    integrand = phi1[ix][:, None] * lam * phi2[iy][None, :]
    return float(trapezoid(trapezoid(integrand, ys, axis=1), xs))


def efficiency_sweep() -> list[Equilibrium]:
    """Equilibrium root and information efficiency for each signal count in SWEEP_SIZES.

    Each record is the standalone solve for I signals, field for field: its ie is
    E[q_true] from the solver's evaluation at its root, ie_std_err its error bound.
    The solves share this call's windows, so each alpha_bar is integrated once.
    """
    windows: dict = {}
    return [solve_alpha_star(I, windows=windows) for I in SWEEP_SIZES]
