"""Fixed-point solve for the effective signal-to-noise number and the demand map.

For an exchangeable kernel the equilibrium reduces to a scalar root problem:
find alpha_bar >= 0 with

    Phi(alpha_bar) = 1 - E[q_true] - alpha_bar^2 * (Q cbar Q)_tt = 0,

where the expectation is over the canonical posterior at alpha_bar.  Phi(0) =
1 - 1/I > 0 and Phi -> negative for large alpha_bar, so a doubling bracket
plus bisection under common random numbers pins the root.  The demand map is
then assembled from the kernel square root:

    beta(s_i) = alpha_bar_star * L_pinv Q e_i,
    W(x, s_i) = sum_u beta(s_i)[u] * eta(x, s_u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import standard_normal_matrix
from .kernel import CanonicalKernel
from .model import PayoffFamily
from .posterior import DEFAULT_MOMENT_SAMPLES, moments_from_noise

_ERR = "adkyle.equilibrium"

PHI_TOL = 1e-4      # |Phi| at the reported root
WIDTH_TOL = 1e-6    # bracket width at the reported root
BRACKET_CAP = 2.0 ** 20
RANGE_TOL = 1e-8    # relative residual allowed in the demand rank check


@dataclass(frozen=True)
class Equilibrium:
    """Solved equilibrium for an exchangeable kernel.

    Attributes:
        alpha_star: Root of Phi in the effective (canonical) coordinate.
        alpha_raw: alpha_star / sqrt(c); the coefficient in original units.
        c: Exchangeability scale of the kernel.
        I: Number of signals.
        phi_residual: Phi estimate at alpha_star (|.| <= PHI_TOL).
        mc_meta: Solver provenance (n_samples, seed, bracket diagnostics).
    """

    alpha_star: float
    alpha_raw: float
    c: float
    I: int
    phi_residual: float = 0.0
    mc_meta: dict = field(repr=False, default_factory=dict)


@dataclass(frozen=True)
class KyleBenchmark:
    """Closed-form single-asset benchmark: trading intensity and price impact."""

    beta: float
    lam: float

    @property
    def product(self) -> float:
        return self.beta * self.lam


def phi_from_noise(alpha_bar: float, noise: np.ndarray, true_index: int = 0) -> float:
    """Fixed-point residual Phi on a frozen noise matrix (common random numbers)."""
    mom = moments_from_noise(alpha_bar, true_index, noise)
    return 1.0 - float(mom.m1[true_index]) - alpha_bar * alpha_bar * mom.qcq_diag


def phi(
    alpha_bar: float,
    I: int,
    n_samples: int = DEFAULT_MOMENT_SAMPLES,
    seed: int = 0,
) -> float:
    """Monte Carlo estimate of the residual; Phi(0) = 1 - 1/I by construction."""
    noise = standard_normal_matrix(seed, int(n_samples), I)
    return phi_from_noise(alpha_bar, noise)


def solve_alpha_star(
    kern: CanonicalKernel,
    n_samples: int = DEFAULT_MOMENT_SAMPLES,
    seed: int = 0,
    phi_tol: float = PHI_TOL,
    width_tol: float = WIDTH_TOL,
) -> Equilibrium:
    """Bracket and bisect the residual to the equilibrium signal-to-noise root.

    A single noise matrix is drawn once and reused for every residual
    evaluation, so the estimated Phi is a deterministic continuous function of
    alpha_bar and bisection is well posed despite the Monte Carlo error.

    Raises:
        ValueError: non-exchangeable kernel, degenerate kernel (c ~ 0), or
            bracket cap exceeded.
    """
    if not kern.exchangeable:
        raise ValueError(
            f"{_ERR}: kernel is not exchangeable (QKQ deviates from cQ); "
            "the scalar reduction does not apply"
        )
    if kern.c <= kern.rank_tol:
        raise ValueError(f"{_ERR}: degenerate kernel, c={kern.c:.3e} has no signal content")
    I = kern.I
    noise = standard_normal_matrix(seed, int(n_samples), I)

    hi = 1.0
    bracket_values = [(0.0, 1.0 - 1.0 / I)]
    n_doublings = 0
    f_hi = phi_from_noise(hi, noise)
    bracket_values.append((hi, f_hi))
    while f_hi >= 0.0:
        hi *= 2.0
        n_doublings += 1
        if hi > BRACKET_CAP:
            raise ValueError(f"{_ERR}: failed to bracket a root below {BRACKET_CAP}")
        f_hi = phi_from_noise(hi, noise)
        bracket_values.append((hi, f_hi))

    lo, f_lo = 0.0, 1.0 - 1.0 / I
    mid, f_mid = hi, f_hi
    n_bisections = 0
    while (hi - lo) >= width_tol or abs(f_mid) >= phi_tol:
        mid = 0.5 * (lo + hi)
        f_mid = phi_from_noise(mid, noise)
        if f_mid >= 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
        n_bisections += 1
        if n_bisections > 200:
            raise ValueError(f"{_ERR}: bisection failed to meet tolerances")

    return Equilibrium(
        alpha_star=float(mid),
        alpha_raw=float(mid / math.sqrt(kern.c)),
        c=float(kern.c),
        I=I,
        phi_residual=float(f_mid),
        mc_meta={
            "n_samples": int(n_samples),
            "seed": int(seed),
            "phi_tol": phi_tol,
            "width_tol": width_tol,
            "bracket_hi": hi,
            "n_doublings": n_doublings,
            "n_bisections": n_bisections,
            "bracket_values": bracket_values,
        },
    )


def equilibrium_demand(
    eq: Equilibrium, kern: CanonicalKernel, family: PayoffFamily
) -> tuple[np.ndarray, np.ndarray]:
    """Demand coefficients and demand surface implied by a solved equilibrium.

    Returns:
        (beta_star, W_star): beta_star is I x I with column i the coefficients
        of the demand given s_i over the payoff dictionary; W_star is I x n
        with row i the demand schedule x -> W(x, s_i).  The Gram matrix of the
        rows is alpha_star^2 Q.

    Raises:
        ValueError: if the kernel cannot represent the centered directions
            (range deficiency), i.e. L L_pinv Q e_i != Q e_i.
    """
    if eq.I != kern.I or family.I != kern.I:
        raise ValueError(f"{_ERR}: signal-count mismatch between equilibrium, kernel, family")
    Q = kern.Q
    resid = kern.L @ (kern.L_pinv @ Q) - Q
    if np.max(np.abs(resid)) > RANGE_TOL:
        raise ValueError(
            f"{_ERR}: rank deficiency, kernel range does not span the centered directions"
        )
    beta_star = eq.alpha_star * (kern.L_pinv @ Q)
    W_star = beta_star.T @ family.eta
    return beta_star, W_star


def kyle_single_asset(sigma_v: float, sigma_eps: float) -> KyleBenchmark:
    """Single-asset closed form: beta = sigma_eps/sigma_v, lam = sigma_v/(2 sigma_eps).

    The product beta * lam is 1/2 independent of the parameters.
    """
    if sigma_v <= 0.0 or sigma_eps <= 0.0:
        raise ValueError(f"{_ERR}: standard deviations must be positive")
    return KyleBenchmark(beta=sigma_eps / sigma_v, lam=sigma_v / (2.0 * sigma_eps))
