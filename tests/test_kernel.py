"""Gram matrix, centering, and exchangeability."""

import math
import tracemalloc

import numpy as np
import pytest

from adkyle import (
    NoiseProfile,
    build_canonical_kernel,
    build_state_grid,
    centering_matrix,
    gram_matrix,
    make_payoff_family,
    normalized_family,
    weighted_inner_product,
)
from adkyle.kernel import EXCHANGEABILITY_TOL, fit_scale

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


def test_gram_matrix_memory_grows_as_i_times_n():
    # one (I, n) product per row, not the (I, I, n) product of all pairs at once
    I, n = 64, 1267
    grid = build_state_grid(-92.2, 92.2, n)
    family = make_payoff_family("gaussian_mean_shift",
                                {"means": list(2.8 * (np.arange(I) - 31.5)), "sd": 0.35}, grid)
    noise = NoiseProfile(np.ones(n))
    tracemalloc.start()
    try:
        gram_matrix(family, noise, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * I * n * 8


def test_centering_matrix_is_projector():
    for I in (2, 3, 6):
        Q = centering_matrix(I)
        assert np.allclose(Q @ Q, Q, atol=PROJECTOR_TOLERANCE)
        assert np.allclose(Q @ np.ones(I), 0.0, atol=PROJECTOR_TOLERANCE)
        assert np.allclose(Q, Q.T, atol=0.0)
        assert np.linalg.matrix_rank(Q) == I - 1


def test_exchangeability_scale_binary_closed_form(mean_shift_kernel):
    # at I = 2 the scale is exactly (K11 - 2 K12 + K22) / 2
    K, c = mean_shift_kernel.K, mean_shift_kernel.c
    expected = (K[0, 0] - 2.0 * K[0, 1] + K[1, 1]) / 2.0
    assert mean_shift_kernel.exchangeable
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
    fam = normalized_family(rows, grid)
    kern = build_canonical_kernel(fam, unit_noise, grid)
    assert not kern.exchangeable


def test_build_canonical_kernel_assembles_consistent_pieces(mean_shift_kernel):
    kern = mean_shift_kernel
    assert kern.exchangeable
    Q = centering_matrix(kern.I)
    c, _, exchangeable = fit_scale(Q @ kern.K @ Q)
    assert (kern.c, kern.exchangeable) == (c, exchangeable)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_fit_scale_tests_the_gap_relative_to_c(scale):
    # the verdict does not move with the noise scale, and a NaN Gram fails it
    M = 2.0 * centering_matrix(3)
    for bump, verdict in ((0.5, True), (2.0, False)):
        bumped = M.copy()
        bumped[0, 1] += bump * EXCHANGEABILITY_TOL * 2.0
        c, gap, ok = fit_scale(scale * bumped)
        assert c == pytest.approx(2.0 * scale, rel=1e-15)
        assert gap == pytest.approx(bump * EXCHANGEABILITY_TOL * c, rel=1e-6)
        assert ok is verdict
    assert fit_scale(np.full((3, 3), np.nan))[2] is False
