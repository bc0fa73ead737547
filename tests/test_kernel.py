"""Gram matrix, centering, and exchangeability."""

import math

import numpy as np
import pytest

from adkyle import (
    NoiseProfile,
    build_canonical_kernel,
    build_state_grid,
    centering_matrix,
    exchangeability_scale,
    gram_matrix,
    make_payoff_family,
    weighted_inner_product,
)

ABS_TOLERANCE = 1e-10
PROJECTOR_TOLERANCE = 1e-12

# closed-form Gram entries for unit-variance Gaussian rows at means -1, +1
# with unit noise: overlap integral exp(-(a-b)^2/4) / (2 sqrt(pi))
K_DIAG = 1.0 / (2.0 * math.sqrt(math.pi))          # 0.2820947917738781
K_OFF = math.exp(-1.0) / (2.0 * math.sqrt(math.pi))  # 0.10377687435514868
C_MEAN_SHIFT = 0.1783179174191889


def test_gram_matches_closed_form(mean_shift_kernel):
    K = mean_shift_kernel.K
    assert K[0, 0] == pytest.approx(K_DIAG, abs=ABS_TOLERANCE)
    assert K[1, 1] == pytest.approx(K_DIAG, abs=ABS_TOLERANCE)
    assert K[0, 1] == pytest.approx(K_OFF, abs=ABS_TOLERANCE)


def test_gram_entries_are_inner_products(mean_shift_family, unit_noise, grid):
    K = gram_matrix(mean_shift_family, unit_noise, grid)
    assert np.array_equal(K, K.T)
    for i in range(2):
        for j in range(2):
            assert K[i, j] == weighted_inner_product(
                mean_shift_family.eta[i], mean_shift_family.eta[j], unit_noise, grid
            )


@pytest.mark.parametrize("kind, params, n", [
    ("gaussian_mean_shift", {"means": list(np.linspace(-3.0, 3.0, 8)), "sd": 1.0}, 401),
    ("skew_normal", {"shapes": [4.0, -4.0, 1.0]}, 101),
    ("gaussian_variance", {"mu": 0.0, "sds": [1.0, 1.5, 2.0]}, 1001),
])
@pytest.mark.parametrize("slope", [0.0, 0.05])
def test_gram_matrix_is_bitwise_the_pairwise_inner_products(kind, params, n, slope):
    grid = build_state_grid(-8.0, 8.0, n)
    family = make_payoff_family(kind, params, grid)
    noise = NoiseProfile(1.0 + slope * (grid.nodes - grid.x_min))
    K = gram_matrix(family, noise, grid)
    weights = grid.quad_weights * np.square(noise.sigma)
    for i in range(family.I):
        for j in range(family.I):
            assert K[i, j] == np.sum((family.eta[i] * family.eta[j]) * weights)


def test_centering_matrix_is_projector():
    for I in (2, 3, 6):
        Q = centering_matrix(I)
        assert np.allclose(Q @ Q, Q, atol=PROJECTOR_TOLERANCE)
        assert np.allclose(Q @ np.ones(I), 0.0, atol=PROJECTOR_TOLERANCE)
        assert np.allclose(Q, Q.T, atol=0.0)
        assert np.linalg.matrix_rank(Q) == I - 1


def test_exchangeability_scale_binary_closed_form(mean_shift_kernel):
    # at I = 2 the scale is exactly (K11 - 2 K12 + K22) / 2
    K = mean_shift_kernel.K
    expected = (K[0, 0] - 2.0 * K[0, 1] + K[1, 1]) / 2.0
    c, ok = exchangeability_scale(K)
    assert ok
    assert c == pytest.approx(expected, rel=1e-14)
    assert c == pytest.approx(C_MEAN_SHIFT, rel=1e-12)


def test_exchangeability_flags_asymmetric_kernels(grid, unit_noise):
    rows = np.vstack(
        [
            np.exp(-0.5 * np.square(grid.nodes + 2.0)),
            np.exp(-0.5 * np.square(grid.nodes)),
            np.exp(-0.5 * np.square((grid.nodes - 2.0) / 0.4)),
        ]
    )
    fam = make_payoff_family("tabulated", {"x": grid.nodes, "eta": rows}, grid)
    kern = build_canonical_kernel(fam, unit_noise, grid)
    assert not kern.exchangeable


def test_build_canonical_kernel_assembles_consistent_pieces(mean_shift_kernel):
    kern = mean_shift_kernel
    assert kern.exchangeable
    assert np.array_equal(kern.Q, centering_matrix(kern.I))
    assert (kern.c, kern.exchangeable) == exchangeability_scale(kern.K)
