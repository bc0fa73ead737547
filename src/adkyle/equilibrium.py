"""Fixed-point solve for the effective signal-to-noise number and the demand map.

For an exchangeable kernel the equilibrium reduces to a scalar root problem:
find alpha_bar >= 0 with

    Phi(alpha_bar) = E[1 - q_t] - alpha_bar^2 E[q_t (1 - q_t)] = 0,

where q_t is the posterior's belief on the true signal.  Phi =
E[(1 - q_t)(1 - alpha_bar^2 q_t)]: 1 - 1/I > 0 at zero and negative for
large alpha_bar.  The law of q_t depends on alpha_bar and I alone, so Phi is a
deterministic function, integrated by posterior.true_belief_moments; a doubling
bracket plus ITP steps (Oliveira & Takahashi 2020) pin its root, which depends
only on I.  For an exchangeable kernel (QKQ = cQ) the demand is the multi-asset
Kyle demand (Caballe & Krishnan 1994), which trades more where noise is larger:

    W(x, s_i) = sigma(x)^2 * (alpha_bar_star / sqrt(c)) * (eta(x, s_i) - eta_bar(x)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernel import RANK_TOL, CanonicalKernel
from .model import NoiseProfile, PayoffFamily, prior_mixture
from .posterior import QUAD_TOL, true_belief_moments

_ERR = "adkyle.equilibrium"

WIDTH_TOL = 1e-6    # bracket width at the reported root
BRACKET_CAP = 2.0 ** 20
SECANT_MIN_DROP = 1e-11  # Phi rounds by ~1e-16: a smaller Phi drop gives no slope


@dataclass(frozen=True)
class Equilibrium:
    """Solved canonical fixed point for I signals.

    Attributes:
        alpha_star: Root of Phi in the effective (canonical) coordinate; a
            kernel of scale c has the coefficient alpha_star / sqrt(c) in
            original units.
        I: Number of signals.
        phi_residual: Phi at alpha_star, the smaller |Phi| of the final bracket's ends.
        alpha_std_err: Error bound on alpha_star: the final bracket width (none
            on an exact zero of Phi) plus QUAD_TOL / |Phi'|, Phi' the secant of
            the narrowest bracket whose Phi drop is at least SECANT_MIN_DROP.
        ie, ie_std_err: E[q_true] at alpha_star and its error bound, that
            bracket's ie secant times alpha_std_err plus QUAD_TOL.
        mc_meta: Solver provenance (bracket, (alpha_bar, phi, stage) trace).
    """

    alpha_star: float
    I: int
    phi_residual: float = 0.0
    alpha_std_err: float = math.nan
    ie: float = math.nan
    ie_std_err: float = math.nan
    mc_meta: dict = field(repr=False, default_factory=dict)


@dataclass(frozen=True)
class KyleBenchmark:
    """Closed-form single-asset benchmark: trading intensity and price impact."""

    beta: float
    lam: float


def solve_alpha_star(I: int, windows: dict | None = None) -> Equilibrium:
    """Root Phi for I signals: bracket by doubling, then shrink with ITP steps.

    The root is the evaluated end of the final bracket (narrower than WIDTH_TOL,
    unless Phi is exactly 0 at its lower end) with the smaller |Phi|; no alpha_bar
    is evaluated twice.  E[q_true] at the root comes from the same evaluation.
    Solves that share a windows dict integrate each alpha_bar once (see
    true_belief_moments), with the same result.

    Raises:
        ValueError: fewer than two signals, bracket cap exceeded, or no
            convergence.
    """
    if I < 2:
        raise ValueError(f"{_ERR}: need at least two signals")
    trace, ie_at = [], {0.0: 1.0 / I}

    def evaluate(alpha_bar: float, stage: str) -> float:
        not_true, spread = true_belief_moments(alpha_bar, I, windows)
        ie_at[alpha_bar] = 1.0 - not_true
        trace.append((alpha_bar, not_true - alpha_bar * alpha_bar * spread, stage))
        return trace[-1][1]

    lo, f_lo = 0.0, 1.0 - 1.0 / I
    hi, f_hi = 1.0, evaluate(1.0, "bracket")
    while f_hi >= 0.0:
        if 2.0 * hi > BRACKET_CAP:
            raise ValueError(f"{_ERR}: failed to bracket a root below {BRACKET_CAP}")
        lo, f_lo, hi, f_hi = hi, f_hi, 2.0 * hi, evaluate(2.0 * hi, "bracket")
    n_doublings = len(trace) - 1

    # ITP: the regula-falsi point, pushed 0.2 width^2 toward the midpoint and
    # held to bisection's worst case plus one step.  An exact zero (it becomes lo)
    # ends the solve: the next steps would evaluate that point again.
    n_max = math.ceil(math.log2(hi - lo) - math.log2(WIDTH_TOL)) + 1
    secant = (lo, f_lo, hi, f_hi)  # the narrowest bracket with a Phi drop of SECANT_MIN_DROP
    while hi - lo >= WIDTH_TOL and f_lo != 0.0:
        n_refine = len(trace) - 1 - n_doublings
        if n_refine == 200:
            raise ValueError(f"{_ERR}: root refinement failed to meet tolerances")
        mid, width = 0.5 * (lo + hi), hi - lo
        x_f = (f_lo * hi - f_hi * lo) / (f_lo - f_hi)
        sigma, delta = math.copysign(1.0, mid - x_f), 0.2 * width * width
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        r = max(math.ldexp(0.5 * WIDTH_TOL, n_max - n_refine) - 0.5 * width, 0.0)
        x = x_t if abs(x_t - mid) <= r else mid - sigma * r
        if not lo < x < hi:  # a step rounded onto an end: bisect, not evaluate it again
            x = mid
        f_x = evaluate(x, "refine")
        lo, f_lo, hi, f_hi = (x, f_x, hi, f_hi) if f_x >= 0.0 else (lo, f_lo, x, f_x)
        if f_lo - f_hi >= SECANT_MIN_DROP:
            secant = (lo, f_lo, hi, f_hi)

    alpha, f_alpha = (lo, f_lo) if abs(f_lo) < abs(f_hi) else (hi, f_hi)
    # the root lies in the final bracket, or at lo on an exact zero; QUAD_TOL / |Phi'|
    # bounds how far the rule's error moves it (drop: Phi' times the final width)
    a, f_a, b, f_b = secant
    drop = (f_a - f_b) * ((hi - lo) / (b - a))
    alpha_err = (hi - lo) * ((1.0 if f_lo != 0.0 else 0.0) + QUAD_TOL / drop)
    return Equilibrium(
        alpha_star=float(alpha),
        I=I,
        phi_residual=float(f_alpha),
        alpha_std_err=alpha_err,
        ie=ie_at[alpha],
        ie_std_err=abs(ie_at[b] - ie_at[a]) / (b - a) * alpha_err + QUAD_TOL,
        mc_meta={"bracket_hi": hi, "n_doublings": n_doublings,
                 "n_bisections": len(trace) - 1 - n_doublings, "trace": trace},
    )


def equilibrium_demand(
    eq: Equilibrium, kern: CanonicalKernel, family: PayoffFamily, noise: NoiseProfile
) -> np.ndarray:
    """Demand surface of a solved equilibrium, I x n: row i is the schedule x -> W(x, s_i).

    W_i = sigma^2 (alpha_star / sqrt(c)) (eta_i - eta_bar), eta_bar the prior mixture.
    Its sigma-Gram (alpha_star^2 / c) QKQ = alpha_star^2 Q gives the posterior the
    canonical law at alpha_star, and W_i / sigma^2 lies in the span of the payoff
    rows, as the insider's first-order condition asks in every direction.

    Raises:
        ValueError: if the kernel is degenerate (c <= RANK_TOL * max diag K);
            not exchangeable, so the scalar reduction does not apply; or its
            signal count differs from the equilibrium's or the family's.
    """
    if not kern.c > RANK_TOL * np.max(np.diag(kern.K)):  # NaN compares False
        raise ValueError(f"{_ERR}: degenerate kernel, c={kern.c:.3e} has no signal content")
    if not kern.exchangeable:
        raise ValueError(f"{_ERR}: kernel is not exchangeable (QKQ deviates from cQ); "
                         "the scalar reduction does not apply")
    if eq.I != kern.I or family.I != kern.I:
        raise ValueError(f"{_ERR}: signal-count mismatch between equilibrium, kernel, family")
    # the scalar times sigma^2 first: doubling sigma quadruples c and doubles W exactly
    return eq.alpha_star / math.sqrt(kern.c) * np.square(noise.sigma) * (
        family.eta - prior_mixture(family))


def kyle_single_asset(sigma_v: float, sigma_eps: float) -> KyleBenchmark:
    """Single-asset closed form: beta = sigma_eps/sigma_v, lam = sigma_v/(2 sigma_eps).

    The product beta * lam is 1/2 independent of the parameters.
    """
    if sigma_v <= 0.0 or sigma_eps <= 0.0:
        raise ValueError(f"{_ERR}: standard deviations must be positive")
    return KyleBenchmark(beta=sigma_eps / sigma_v, lam=sigma_v / (2.0 * sigma_eps))
