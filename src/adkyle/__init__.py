"""Equilibrium engine and simulator for insider trading across a continuum of claims.

A single informed trader holds one of I signals about the terminal state of a
market with a density of state-contingent claims.  The package solves the
resulting pricing equilibrium (a scalar fixed point for exchangeable payoff
families), simulates the aggregate order flow, and measures cross-asset price
impact, information efficiency, and the option-strip structure of the
equilibrium demand.

Importing the package loads no submodule: each public name imports its module
on first access (PEP 562), so a process loads only the code it uses.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the public names it exports
_EXPORTS = {
    "model": ("NoiseProfile", "PayoffFamily", "StateGrid", "build_state_grid",
              "make_payoff_family", "normalized_family", "prior_mixture",
              "weighted_inner_product"),
    "kernel": ("CanonicalKernel", "build_canonical_kernel", "centering_matrix", "gram_matrix"),
    "posterior": ("posterior_moments", "true_belief_moments"),
    "equilibrium": ("Equilibrium", "KyleBenchmark", "equilibrium_demand", "kyle_single_asset",
                    "solve_alpha_star"),
    "orderflow": ("cumulative_flow", "log_likelihoods", "posterior_weights", "price_schedule",
                  "simulate_increments"),
    "objective": ("FocReport", "foc_terms", "zero_impact_direction"),
    "analytics": ("derivative_cross_impact", "efficiency_sweep", "impact_surface"),
    "options": ("OptionStrip", "bl_decompose", "bl_reconstruct", "demand_signature"),
    "config": ("RunConfig", "load_config"),
    "_rng": ("derive_seed",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
