"""Option-strip representation of demand schedules and qualitative signatures.

Any twice-differentiable schedule W admits the static replication

    W(x) = [W(K0) - K0 W'(K0)] + W'(K0) x
           + int_{K<=K0} W''(K) (K - x)+ dK + int_{K>=K0} W''(K) (x - K)+ dK,

i.e. a bond position, a position in the underlying index, and densities of
puts below / calls above the pivot strike K0.  On the grid the derivatives
are central differences and the strike integrals trapezoid sums over interior
nodes, giving an O(h^2) reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import PayoffFamily, StateGrid, prior_moments, trapezoid

_ERR = "adkyle.options"

SIGNATURES = (
    "flat",
    "bullish",
    "bearish",
    "long_vol",
    "short_vol",
    "right_skew",
    "left_skew",
    "mixed",
)
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
        call_density: W'' at the call strikes.
    """

    k0: float
    bond: float
    underlying: float
    put_strikes: np.ndarray = field(repr=False)
    put_density: np.ndarray = field(repr=False)
    call_strikes: np.ndarray = field(repr=False)
    call_density: np.ndarray = field(repr=False)


def _derivatives(w: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(W', W'') on the nodes: central differences, one-sided W' at the ends.

    W'' is defined on interior nodes only; boundary entries are NaN.
    """
    d1 = np.empty_like(w)
    d1[1:-1] = (w[2:] - w[:-2]) / (2.0 * h)
    d1[0] = (w[1] - w[0]) / h
    d1[-1] = (w[-1] - w[-2]) / h
    d2 = np.full_like(w, np.nan)
    d2[1:-1] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / (h * h)
    return d1, d2


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
    i0 = grid.nearest(k0, margin=1)
    if abs(grid.nodes[i0] - k0) > 1e-9 * (grid.x_max - grid.x_min):
        raise ValueError(f"{_ERR}: pivot strike {k0} must be an interior grid node")
    k0 = float(grid.nodes[i0])
    d1, d2 = _derivatives(w, grid.h)
    underlying = float(d1[i0])
    bond = float(w[i0] - k0 * underlying)
    interior = np.arange(1, grid.n - 1)
    put_idx = interior[interior <= i0]
    call_idx = interior[interior >= i0]
    return OptionStrip(
        k0=k0,
        bond=bond,
        underlying=underlying,
        put_strikes=grid.nodes[put_idx].copy(),
        put_density=d2[put_idx].copy(),
        call_strikes=grid.nodes[call_idx].copy(),
        call_density=d2[call_idx].copy(),
    )


def bl_reconstruct(strip: OptionStrip, grid: StateGrid) -> np.ndarray:
    """Evaluate the strip on the grid: bond + underlying + option integrals.

    The put and call integrals are trapezoid sums over the stored strikes; the
    pivot K0 terminates both, so no strike interval is skipped or counted
    twice.  For smooth schedules the sup-norm error is O(h^2).
    """
    x = grid.nodes
    put_pay = np.clip(strip.put_strikes[:, None] - x[None, :], 0.0, None)
    call_pay = np.clip(x[None, :] - strip.call_strikes[:, None], 0.0, None)
    puts = trapezoid(strip.put_density[:, None] * put_pay, strip.put_strikes, axis=0)
    calls = trapezoid(strip.call_density[:, None] * call_pay, strip.call_strikes, axis=0)
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
