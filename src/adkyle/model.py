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

FAMILY_KINDS = ("gaussian_mean_shift", "gaussian_variance", "skew_normal", "tabulated")

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
        labels: One identifier per signal (s1, s2, ...).
        eta: I x n matrix; row i is the density of the terminal state given s_i,
            truncated to the grid interval and renormalized to integrate to 1
            under the grid's quadrature weights.
        family_kind: One of FAMILY_KINDS.
    """

    labels: tuple[str, ...]
    eta: np.ndarray = field(repr=False)
    family_kind: str = "tabulated"

    def __post_init__(self):
        eta = _frozen(self.eta)
        if eta.ndim != 2 or eta.shape[0] != len(self.labels):
            raise ValueError(f"{_ERR}: eta must be an I x n matrix matching labels")
        if np.any(eta < 0.0):
            raise ValueError(f"{_ERR}: payoff densities must be nonnegative")
        if self.family_kind not in FAMILY_KINDS:
            raise ValueError(f"{_ERR}: unknown family kind {self.family_kind!r}")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def I(self) -> int:
        return self.eta.shape[0]


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
) -> float:
    """Sigma-weighted inner product sum_j w_j f_j g_j / sigma_j^2.

    Exact for grid functions whose product f*g/sigma^2 is piecewise linear
    between nodes.  Symmetric in (f, g) exactly (same floating operations).
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != (grid.n,) or g.shape != (grid.n,) or noise.sigma.shape != (grid.n,):
        raise ValueError(f"{_ERR}: length mismatch against grid with n={grid.n}")
    # multiply f*g first so the expression is symmetric in (f, g) bitwise
    return float(np.sum((f * g) * (grid.quad_weights / np.square(noise.sigma))))


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


def _renormalized_rows(rows: np.ndarray, grid: StateGrid, kind: str) -> PayoffFamily:
    masses = rows @ grid.quad_weights
    if not np.all((masses > 0.0) & (masses < math.inf)):
        raise ValueError(f"{_ERR}: a payoff row has no finite, positive mass on the grid interval")
    eta = rows / masses[:, None]
    labels = tuple(f"s{i + 1}" for i in range(rows.shape[0]))
    return PayoffFamily(labels, eta, kind)


def make_payoff_family(kind: str, params: dict, grid: StateGrid) -> PayoffFamily:
    """Construct a payoff-density family on the grid.

    Supported kinds and parameters:
        gaussian_mean_shift: means (list of I floats), sd (common std dev >= h).
        gaussian_variance:   mu (common mean), sds (list of I std devs >= h).
        skew_normal:         shapes (list of I shape parameters a). Location and
            scale are moment-matched per row so each component has zero mean and
            unit variance before truncation (so it needs h <= 1):
            delta = a/sqrt(1+a^2), omega = 1/sqrt(1 - 2 delta^2/pi),
            xi = -omega delta sqrt(2/pi).
        tabulated:           x (nodes), eta (I x n nonnegative rows).

    Rows are truncated to [x_min, x_max] and renormalized by their grid
    integral, so every row integrates to 1 under quad_weights.  A component
    narrower than the grid step h is rejected: the kernel would then measure
    the grid, not the family.

    Raises:
        ValueError: nonpositive variance, a component sd below h, mean far
            outside the grid (|mu - midpoint| > span), negative tabulated
            entries, I < 2.
    """
    x = grid.nodes
    midpoint = 0.5 * (grid.x_min + grid.x_max)
    span = grid.x_max - grid.x_min

    def _check_mean(mu: float):
        if abs(mu - midpoint) > span:
            raise ValueError(f"{_ERR}: component mean {mu} lies far outside the grid")

    def _check_sd(sd: float):
        if sd < grid.h:
            raise ValueError(f"{_ERR}: component sd {sd} is below the grid step {grid.h}")

    if kind == "gaussian_mean_shift":
        means = [float(m) for m in params["means"]]
        sd = float(params["sd"])
        if len(means) < 2:
            raise ValueError(f"{_ERR}: need at least two signals")
        if sd <= 0.0:
            raise ValueError(f"{_ERR}: nonpositive variance")
        _check_sd(sd)
        for m in means:
            _check_mean(m)
        rows = np.stack([_normal_pdf((x - m) / sd) / sd for m in means])
    elif kind == "gaussian_variance":
        mu = float(params["mu"])
        sds = [float(s) for s in params["sds"]]
        if len(sds) < 2:
            raise ValueError(f"{_ERR}: need at least two signals")
        if any(s <= 0.0 for s in sds):
            raise ValueError(f"{_ERR}: nonpositive variance")
        for s in sds:
            _check_sd(s)
        _check_mean(mu)
        rows = np.stack([_normal_pdf((x - mu) / s) / s for s in sds])
    elif kind == "skew_normal":
        from scipy.special import ndtr  # only this family needs scipy; start-up skips it
        shapes = [float(a) for a in params["shapes"]]
        if len(shapes) < 2:
            raise ValueError(f"{_ERR}: need at least two signals")
        _check_sd(1.0)  # each component has unit sd
        rows = []
        for a in shapes:
            delta = a / math.sqrt(1.0 + a * a)
            omega = 1.0 / math.sqrt(1.0 - 2.0 * delta * delta / math.pi)
            xi = -omega * delta * math.sqrt(2.0 / math.pi)
            _check_mean(xi)
            z = (x - xi) / omega
            rows.append(2.0 / omega * _normal_pdf(z) * ndtr(a * z))
        rows = np.stack(rows)
    elif kind == "tabulated":
        xs = np.asarray(params["x"], dtype=float)
        rows = np.asarray(params["eta"], dtype=float)
        if rows.ndim != 2 or rows.shape[0] < 2:
            raise ValueError(f"{_ERR}: tabulated eta must have at least two rows")
        if xs.shape != (grid.n,) or rows.shape[1] != grid.n:
            raise ValueError(f"{_ERR}: tabulated nodes do not match the grid (n={grid.n})")
        if not np.allclose(xs, x, rtol=0.0, atol=1e-9 * max(1.0, span)):
            raise ValueError(f"{_ERR}: tabulated x column differs from the grid nodes")
        if np.any(rows < 0.0):
            raise ValueError(f"{_ERR}: tabulated density has a negative entry")
    else:
        raise ValueError(f"{_ERR}: unknown family kind {kind!r}")

    return _renormalized_rows(np.asarray(rows, dtype=float), grid, kind)
