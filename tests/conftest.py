"""Shared fixtures: a default grid, unit noise, and the two-signal families.

The heavy pieces (Monte Carlo solve, demand assembly) are session-scoped so
the suite pays for them once.
"""

import math

import numpy as np
import pytest

from adkyle import (
    Equilibrium,
    NoiseProfile,
    build_canonical_kernel,
    build_state_grid,
    equilibrium_demand,
    make_payoff_family,
    solve_alpha_star,
)

# Exact fixed point of the binary moment equation: the scaled-posterior map
# for two signals is stationary at sqrt(2).
ALPHA_STAR_BINARY = math.sqrt(2.0)


@pytest.fixture(scope="session")
def grid():
    return build_state_grid(-8.0, 8.0, 401)


@pytest.fixture(scope="session")
def unit_noise(grid):
    return NoiseProfile(sigma=np.ones(grid.n))


@pytest.fixture(scope="session")
def mean_shift_family(grid):
    return make_payoff_family(
        "gaussian_mean_shift", {"means": [-1.0, 1.0], "sd": 1.0}, grid
    )


@pytest.fixture(scope="session")
def variance_family(grid):
    return make_payoff_family("gaussian_variance", {"mu": 0.0, "sds": [1.0, 1.5]}, grid)


@pytest.fixture(scope="session")
def skew_family(grid):
    return make_payoff_family("skew_normal", {"shapes": [4.0, -4.0]}, grid)


@pytest.fixture(scope="session")
def mean_shift_kernel(mean_shift_family, unit_noise, grid):
    return build_canonical_kernel(mean_shift_family, unit_noise, grid)


def exact_binary_equilibrium(kern):
    """Equilibrium object at the exact binary root, bypassing the MC solve."""
    return Equilibrium(
        alpha_star=ALPHA_STAR_BINARY,
        alpha_raw=ALPHA_STAR_BINARY / math.sqrt(kern.c),
        c=kern.c,
        I=kern.Q.shape[0],
        phi_residual=0.0,
        mc_meta={"n_samples": 0, "seed": -1},
    )


@pytest.fixture(scope="session")
def mean_shift_demand(mean_shift_kernel, mean_shift_family):
    eq = exact_binary_equilibrium(mean_shift_kernel)
    beta, w_star = equilibrium_demand(eq, mean_shift_kernel, mean_shift_family)
    return eq, beta, w_star


@pytest.fixture(scope="session")
def solved_mean_shift(mean_shift_kernel):
    return solve_alpha_star(mean_shift_kernel, n_samples=200_000, seed=0)
