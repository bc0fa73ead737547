"""Equilibrium engine and simulator for insider trading across a continuum of claims.

A single informed trader holds one of I signals about the terminal state of a
market with a density of state-contingent claims.  The package solves the
resulting pricing equilibrium (a scalar fixed point for exchangeable payoff
families), simulates the aggregate order flow, and measures cross-asset price
impact, information efficiency, and the option-strip structure of the
equilibrium demand.
"""

from ._rng import derive_seed
from .model import (
    FAMILY_KINDS,
    NoiseProfile,
    PayoffFamily,
    StateGrid,
    build_state_grid,
    make_payoff_family,
    prior_mixture,
    weighted_inner_product,
)
from .kernel import (
    CanonicalKernel,
    build_canonical_kernel,
    centering_matrix,
    exchangeability_scale,
    gram_matrix,
)
from .posterior import posterior_covariance, true_belief_moments
from .equilibrium import (
    Equilibrium,
    KyleBenchmark,
    equilibrium_demand,
    kyle_single_asset,
    solve_alpha_star,
)
from .orderflow import (
    log_likelihoods,
    posterior_weights,
    price_schedule,
    simulate_increments,
)
from .objective import FocReport, expected_utility, foc_terms, zero_impact_basis
from .analytics import (
    derivative_cross_impact,
    efficiency_sweep,
    impact_surface,
)
from .options import OptionStrip, bl_decompose, bl_reconstruct, demand_signature
from .config import RunConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "FAMILY_KINDS",
    "NoiseProfile",
    "PayoffFamily",
    "StateGrid",
    "build_state_grid",
    "make_payoff_family",
    "prior_mixture",
    "weighted_inner_product",
    "CanonicalKernel",
    "build_canonical_kernel",
    "centering_matrix",
    "exchangeability_scale",
    "gram_matrix",
    "posterior_covariance",
    "true_belief_moments",
    "Equilibrium",
    "KyleBenchmark",
    "equilibrium_demand",
    "kyle_single_asset",
    "solve_alpha_star",
    "log_likelihoods",
    "posterior_weights",
    "price_schedule",
    "simulate_increments",
    "FocReport",
    "expected_utility",
    "foc_terms",
    "zero_impact_basis",
    "derivative_cross_impact",
    "efficiency_sweep",
    "impact_surface",
    "OptionStrip",
    "bl_decompose",
    "bl_reconstruct",
    "demand_signature",
    "RunConfig",
    "load_config",
    "derive_seed",
    "__version__",
]
