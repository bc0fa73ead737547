"""Economic primitives: state grid, noise intensity, payoff-density families.

The terminal state index lives on a compact interval [x_min, x_max] discretized
by a uniform grid.  All downstream inner products are taken in the sigma-weighted
sense

    <f, g>_sigma = sum_j w_j * f(x_j) * g(x_j) / sigma(x_j)**2,

with w_j the composite trapezoid weights, so that noisier assets carry less
informational weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_ERR = "adkyle.model"

# numpy 2 renamed trapz to trapezoid; numpy < 2 has only trapz.
trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StateGrid:
    """Uniform discretization of the state interval with trapezoid weights.

    Attributes:
        x_min: Lower bound of the state index interval.
        x_max: Upper bound.
        n: Number of grid nodes (inclusive endpoints).
        nodes: Strictly increasing array of n nodes, nodes[0] = x_min.
        quad_weights: Composite trapezoid weights; sums to x_max - x_min.
    """

    x_min: float
    x_max: float
    n: int
    nodes: np.ndarray = field(repr=False)
    quad_weights: np.ndarray = field(repr=False)

    @property
    def h(self) -> float:
        """Grid step (x_max - x_min) / (n - 1)."""
        return (self.x_max - self.x_min) / (self.n - 1)

    def nearest(self, x: float, margin: int = 0) -> int:
        """Index of the node nearest to x, clamped to [margin, n - 1 - margin]."""
        if not math.isfinite(x):
            raise ValueError(f"{_ERR}: node query x must be finite, got {x}")
        # clamp before rounding, so that a huge finite x cannot overflow int()
        return int(round(min(max((x - self.x_min) / self.h, margin), self.n - 1 - margin)))

    def node(self, x: float, margin: int = 0) -> int:
        """Index of the node equal to x (to round-off) in [margin, n - 1 - margin], else error."""
        idx = self.nearest(x, margin)
        if abs(self.nodes[idx] - x) > 1e-9 * (self.x_max - self.x_min):
            raise ValueError(
                f"{_ERR}: {x} is not a grid node with index in [{margin}, {self.n - 1 - margin}]"
            )
        return idx


@dataclass(frozen=True)
class NoiseProfile:
    """Noise-trading intensity sigma(x) sampled on the grid nodes.

    Attributes:
        sigma: Array of strictly positive standard deviations per node.
    """

    sigma: np.ndarray = field(repr=False)

    def __post_init__(self):
        sigma = _frozen(self.sigma)
        if sigma.ndim != 1:
            raise ValueError(f"{_ERR}: sigma must be a 1-d array")
        with np.errstate(over="ignore", divide="ignore"):
            inv_var = 1.0 / np.square(sigma)  # the weight every inner product uses
        if not (np.all(sigma > 0.0) and np.all(np.isfinite(inv_var)) and np.all(inv_var > 0.0)):
            raise ValueError(
                f"{_ERR}: noise intensity must be > 0 everywhere with a finite 1/sigma^2")
        object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True)
class PayoffFamily:
    """Signal-contingent payoff densities eta(x, s_i) on the grid.

    Attributes:
        eta: I x n matrix; row i is the density of the terminal state given s_i,
            truncated to the grid interval and renormalized to integrate to 1
            under the grid's quadrature weights.
    """

    eta: np.ndarray = field(repr=False)

    def __post_init__(self):
        eta = _frozen(self.eta)
        if eta.ndim != 2:
            raise ValueError(f"{_ERR}: eta must be an I x n matrix")
        if np.any(eta < 0.0):
            raise ValueError(f"{_ERR}: payoff densities must be nonnegative")
        object.__setattr__(self, "eta", eta)

    @property
    def I(self) -> int:
        return self.eta.shape[0]

    @property
    def labels(self) -> tuple[str, ...]:
        """One identifier per signal: s1, s2, ..., sI."""
        return tuple(f"s{i + 1}" for i in range(self.I))


def build_state_grid(x_min: float, x_max: float, n: int) -> StateGrid:
    """Uniform grid with composite trapezoid weights.

    Args:
        x_min: Lower bound (finite).
        x_max: Upper bound (finite, > x_min).
        n: Number of nodes, at least 3.

    Returns:
        StateGrid with step h = (x_max - x_min) / (n - 1) and weights
        (h/2, h, ..., h, h/2).

    Raises:
        ValueError: for non-finite bounds or span, x_min >= x_max, or n < 3.
    """
    if not math.isfinite(x_max - x_min):  # also false for an infinite or NaN bound
        raise ValueError(f"{_ERR}: grid bounds and their span must be finite")
    if not x_min < x_max:
        raise ValueError(f"{_ERR}: need x_min < x_max, got [{x_min}, {x_max}]")
    n = int(n)
    if n < 3:
        raise ValueError(f"{_ERR}: need at least 3 grid nodes, got {n}")
    nodes = np.linspace(x_min, x_max, n)
    h = (x_max - x_min) / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return StateGrid(float(x_min), float(x_max), n, _frozen(nodes), _frozen(w))


def weighted_inner_product(
    f: np.ndarray, g: np.ndarray, noise: NoiseProfile, grid: StateGrid
) -> float | np.ndarray:
    """Sigma-weighted inner product sum_j w_j f_j g_j / sigma_j^2.

    Exact for grid functions whose product f*g/sigma^2 is piecewise linear
    between nodes.  Symmetric in (f, g) exactly (same floating operations).
    f and g may be stacks (..., n) that broadcast against each other: the
    last axis is summed over the same products, so each entry is bitwise the
    call on its two rows.  Two rows give a float.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape[-1:] != (grid.n,) or g.shape[-1:] != (grid.n,) or noise.sigma.shape != (grid.n,):
        raise ValueError(f"{_ERR}: length mismatch against grid with n={grid.n}")
    # multiply f*g first so the expression is symmetric in (f, g) bitwise
    out = np.sum((f * g) * (grid.quad_weights / np.square(noise.sigma)), axis=-1)
    return out if out.ndim else float(out)


def prior_mixture(family: PayoffFamily) -> np.ndarray:
    """Prior-mean density m(x) = (1/I) sum_i eta(x, s_i) (uniform signal prior)."""
    return family.eta.mean(axis=0)


def prior_moments(family: PayoffFamily, grid: StateGrid) -> tuple[float, float]:
    """Mean and standard deviation of the state under the prior mixture."""
    mbar = prior_mixture(family)
    gw = grid.quad_weights
    mu = float(np.dot(gw * grid.nodes, mbar))
    var = float(np.dot(gw * np.square(grid.nodes - mu), mbar))
    return mu, math.sqrt(max(var, 0.0))


def _normal_pdf(z: np.ndarray) -> np.ndarray:
    # a |z| whose square overflows lies so far out that its density is 0: exp(-inf)
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * np.square(z)) / math.sqrt(2.0 * math.pi)


def _normal_cdf(v: np.ndarray) -> np.ndarray:
    # Phi(v) = erfc(-v / sqrt(2)) / 2 from the standard library, since numpy has no erf; an
    # infinite v (an overflowing shape * z) gives exactly 0 or 1
    return 0.5 * np.frompyfunc(math.erfc, 1, 1)(-v / math.sqrt(2.0)).astype(float)


def normalized_family(rows: np.ndarray, grid: StateGrid) -> PayoffFamily:
    """The family of I >= 2 nonnegative rows of the grid's n node values, each scaled to
    mass 1 under quad_weights; a row with no finite, positive mass is an error."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 2 or rows.shape[1] != grid.n:
        raise ValueError(f"{_ERR}: need an I x n array of rows, I >= 2 and n = {grid.n}")
    masses = rows @ grid.quad_weights
    if not np.all((masses > 0.0) & (masses < math.inf)):
        raise ValueError(f"{_ERR}: a payoff row has no finite, positive mass on the grid interval")
    return PayoffFamily(rows / masses[:, None])


# family kind -> the parameters it reads, the one that lists a value per signal first
FAMILY_PARAMS = {
    "gaussian_mean_shift": ("means", "sd"),
    "gaussian_variance": ("sds", "mu"),
    "skew_normal": ("shapes",),
}


def make_payoff_family(kind: str, params: dict, grid: StateGrid) -> PayoffFamily:
    """Construct a payoff-density family of a FAMILY_PARAMS kind on the grid.

    Kinds and parameters:
        gaussian_mean_shift: means (list of I floats), sd (common std dev >= h).
        gaussian_variance:   sds (list of I std devs >= h), mu (common mean).
        skew_normal:         shapes (list of I shape parameters a). Location and
            scale are moment-matched per row so each component has zero mean and
            unit variance before truncation (so it needs h <= 1):
            delta = a/sqrt(1+a^2), omega = 1/sqrt(1 - 2 delta^2/pi),
            xi = -omega delta sqrt(2/pi).  The row is 2/omega phi(z) Phi(a z) with
            z = (x - xi)/omega, and Phi(v) = erfc(-v/sqrt(2))/2 from math.erfc.

    Rows are truncated to [x_min, x_max] and go through normalized_family, as rows
    of the caller's own do, so each integrates to 1 under quad_weights.  A
    component narrower than the grid step h is rejected: the kernel would then
    measure the grid, not the family.

    Raises:
        ValueError, in this order: an unknown kind, I < 2, nonpositive variance, a
            component sd below h, a mean far outside the grid (|mu - midpoint| > span).
    """
    if kind not in FAMILY_PARAMS:
        raise ValueError(f"{_ERR}: unknown family kind {kind!r}")
    if len(params[FAMILY_PARAMS[kind][0]]) < 2:
        raise ValueError(f"{_ERR}: need at least two signals")
    if kind == "skew_normal":
        shapes = [float(a) for a in params["shapes"]]
        deltas = [a / math.hypot(1.0, a) for a in shapes]  # a * a overflows past |a| ~ 1.3e154
        scales = [1.0 / math.sqrt(1.0 - 2.0 * d * d / math.pi) for d in deltas]
        locs = [-w * d * math.sqrt(2.0 / math.pi) for w, d in zip(scales, deltas)]
        sds = [1.0]  # each component has unit sd
    elif kind == "gaussian_mean_shift":
        locs = [float(m) for m in params["means"]]
        sds = scales = [float(params["sd"])] * len(locs)
    else:
        sds = scales = [float(s) for s in params["sds"]]
        locs = [float(params["mu"])] * len(sds)
    if any(s <= 0.0 for s in sds):
        raise ValueError(f"{_ERR}: nonpositive variance")
    for s in sds:
        if s < grid.h:
            raise ValueError(f"{_ERR}: component sd {s} is below the grid step {grid.h}")
    midpoint = 0.5 * (grid.x_min + grid.x_max)
    for m in locs:
        if abs(m - midpoint) > grid.x_max - grid.x_min:
            raise ValueError(f"{_ERR}: component mean {m} lies far outside the grid")

    x, rows = grid.nodes, []
    for i, (m, s) in enumerate(zip(locs, scales)):  # row by row: no I x n arithmetic temporary
        z = (x - m) / s
        rows.append(2.0 / s * _normal_pdf(z) * _normal_cdf(shapes[i] * z) if kind == "skew_normal"
                    else _normal_pdf(z) / s)
    return normalized_family(np.stack(rows), grid)
