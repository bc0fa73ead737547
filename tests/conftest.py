"""Shared fixtures: a default grid, unit noise, and the two-signal families.

The shared pieces (the solve, demand assembly) are session-scoped so the
suite pays for them once.
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
from adkyle._rng import FLOW_STATISTIC, derive_seed, standard_normal_matrix
from adkyle.orderflow import PATH_BLOCK_SIZE

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
    """Equilibrium object at the exact binary root, bypassing the solve."""
    return Equilibrium(
        alpha_star=ALPHA_STAR_BINARY,
        alpha_raw=ALPHA_STAR_BINARY / math.sqrt(kern.c),
        c=kern.c,
        I=kern.Q.shape[0],
        phi_residual=0.0,
    )


def statistic_shocks(w_tilde, noise, grid, seed, n_paths):
    """(n_paths, n-1) shocks whose projections are the order-flow statistic's draws.

    With A = sigma sqrt(h) (W_tilde / sigma^2)[:, :-1] and A^T = Q R, the shocks
    z @ Q^T project to z @ Q^T @ A^T = z @ R, the noise that the block loop adds
    to each path's log-likelihoods.  A reference that filters full increments
    built on these shocks must match the block loop to rounding.
    """
    f = (w_tilde / np.square(noise.sigma))[:, :-1]
    q, _ = np.linalg.qr((noise.sigma[:-1] * math.sqrt(grid.h) * f).T)
    z = standard_normal_matrix(derive_seed(seed, *FLOW_STATISTIC), n_paths, len(w_tilde),
                               PATH_BLOCK_SIZE)
    return z @ q.T


@pytest.fixture(scope="session")
def mean_shift_demand(mean_shift_kernel, mean_shift_family):
    eq = exact_binary_equilibrium(mean_shift_kernel)
    beta, w_star = equilibrium_demand(eq, mean_shift_kernel, mean_shift_family)
    return eq, beta, w_star


@pytest.fixture(scope="session")
def solved_mean_shift(mean_shift_kernel):
    return solve_alpha_star(mean_shift_kernel)
