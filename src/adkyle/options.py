"""Option-strip representation of demand schedules and qualitative signatures.

Any twice-differentiable schedule W admits the static replication

    W(x) = [W(K0) - K0 W'(K0)] + W'(K0) x
           + int_{K<=K0} W''(K) (K - x)+ dK + int_{K>=K0} W''(K) (x - K)+ dK,

i.e. a bond position, a position in the underlying index, and densities of
puts below / calls above the pivot strike K0.  On the grid the derivatives
are central differences and the strike integrals trapezoid sums over interior
nodes.  The replication is exact, up to rounding, at every interior node; the
two end nodes miss by (h^2/2) W'' at the outermost strikes (h^2 for W = x^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import PayoffFamily, StateGrid, _frozen, prior_moments

_ERR = "adkyle.options"

FLAT_REL_TOL = 1e-8


@dataclass(frozen=True)
class OptionStrip:
    """Bond + underlying + put/call strike densities replicating a schedule.

    Attributes:
        k0: Pivot strike (a grid node).
        bond: Payoff-0 position W(K0) - K0 W'(K0).
        underlying: Linear coefficient W'(K0).
        put_strikes: Interior nodes <= k0 (k0 included).
        put_density: W'' at the put strikes.
        call_strikes: Interior nodes >= k0 (k0 included).
        call_density: W'' at the call strikes.  All four arrays are read-only.
    """

    k0: float
    bond: float
    underlying: float
    put_strikes: np.ndarray = field(repr=False)
    put_density: np.ndarray = field(repr=False)
    call_strikes: np.ndarray = field(repr=False)
    call_density: np.ndarray = field(repr=False)


def bl_decompose(w_row: np.ndarray, grid: StateGrid, k0: float) -> OptionStrip:
    """Decompose a schedule into bond, underlying, and option densities.

    Args:
        w_row: Schedule values on the grid nodes.
        grid: State grid.
        k0: Pivot strike; must coincide with an interior grid node.

    Raises:
        ValueError: if k0 is not an interior node.
    """
    w = np.asarray(w_row, dtype=float)
    if w.shape != (grid.n,):
        raise ValueError(f"{_ERR}: schedule must have length n={grid.n}")
    i0 = grid.node(k0, margin=1)
    k0 = float(grid.nodes[i0])
    h = grid.h
    underlying = float((w[i0 + 1] - w[i0 - 1]) / (2.0 * h))
    d2 = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / (h * h)  # W'' at the interior nodes 1..n-2
    interior = grid.nodes[1:-1]
    return OptionStrip(
        k0=k0,
        bond=float(w[i0] - k0 * underlying),
        underlying=underlying,
        put_strikes=_frozen(interior[:i0]),
        put_density=_frozen(d2[:i0]),
        call_strikes=_frozen(interior[i0 - 1:]),
        call_density=_frozen(d2[i0 - 1:]),
    )


def _put_leg(strikes: np.ndarray, density: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k c_k (K_k - x)+, c_k = trapezoid weight x density: slopes C_k = sum_{l>=k} c_l times
    strike steps, summed down from the top strike, so no S1(x) - x S0(x) cancellation."""
    dk = np.diff(strikes)
    c = density * (np.append(dk, 0.0) + np.append(0.0, dk)) / 2.0
    tail = np.append(np.cumsum(c[::-1])[::-1], 0.0)             # C_k, and 0 past the top
    at_strike = np.append(np.cumsum((dk * tail[1:-1])[::-1])[::-1], [0.0, 0.0])
    k = np.searchsorted(strikes, x)                               # first strike >= x
    return at_strike[k] + (np.append(strikes, strikes[-1])[k] - x) * tail[k]


def bl_reconstruct(strip: OptionStrip, grid: StateGrid) -> np.ndarray:
    """Evaluate the strip on the grid: bond + underlying + option integrals.

    The put and call integrals are trapezoid sums over the stored strikes, which must
    increase; the pivot K0 ends both, and the call leg is the put leg mirrored.  Memory
    O(n), time O(n) but for a binary search per node.  On a `bl_decompose` strip the result
    is exact, up to rounding, at every interior node; the end nodes miss by (h^2/2) W''.
    """
    x = grid.nodes
    puts = _put_leg(strip.put_strikes, strip.put_density, x)
    calls = _put_leg(-strip.call_strikes[::-1], strip.call_density[::-1], -x[::-1])[::-1]
    return strip.bond + strip.underlying * x + puts + calls


def demand_signature(w_row: np.ndarray, family: PayoffFamily, grid: StateGrid) -> str:
    """Qualitative label of a demand schedule from five prior-scaled probes.

    Probes sit at mu + k * sbar for k in (-2, -1, 0, 1, 2), where (mu, sbar)
    are the mean and standard deviation of the prior mixture.  Tail signs
    classify direction and convexity:

        all probes ~ 0                          -> flat
        center opposite two same-sign tails     -> long_vol / short_vol
        opposite tails, inner tails agree       -> bullish / bearish
        opposite tails, inner tails reversed    -> right_skew / left_skew

    Anything else is labeled mixed.
    """
    w = np.asarray(w_row, dtype=float)
    if w.shape != (grid.n,):
        raise ValueError(f"{_ERR}: schedule must have length n={grid.n}")
    mu, sbar = prior_moments(family, grid)
    if sbar == 0.0:
        raise ValueError(f"{_ERR}: prior mixture has zero dispersion")

    def probe(k: float) -> float:
        return float(w[grid.nearest(mu + k * sbar)])

    outer_l, inner_l, center, inner_r, outer_r = (probe(k) for k in (-2, -1, 0, 1, 2))
    thr = FLAT_REL_TOL * max(float(np.max(np.abs(w))), 1e-300)
    if all(abs(v) <= thr for v in (outer_l, inner_l, center, inner_r, outer_r)):
        return "flat"

    def sgn(v: float) -> int:
        return 0 if abs(v) <= thr else (1 if v > 0 else -1)

    s_ol, s_il, s_c, s_ir, s_or = map(sgn, (outer_l, inner_l, center, inner_r, outer_r))
    if s_ol == s_or != 0 and s_c == -s_or:
        return "long_vol" if s_or > 0 else "short_vol"
    if s_ol == -s_or != 0:
        inner_agrees = (s_ir in (0, s_or)) and (s_il in (0, s_ol))
        if inner_agrees:
            return "bullish" if s_or > 0 else "bearish"
        return "right_skew" if s_or > 0 else "left_skew"
    return "mixed"
