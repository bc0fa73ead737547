"""Gram matrix, centering, exchangeability, and the kernel square root."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adkyle import (
    NoiseProfile,
    build_canonical_kernel,
    build_state_grid,
    centering_matrix,
    exchangeability_scale,
    gram_matrix,
    make_payoff_family,
    sqrt_and_pinv,
    weighted_inner_product,
)

MATRIX_DIMENSION = 5
ABS_TOLERANCE = 1e-10
REL_TOLERANCE = 1e-10
PROJECTOR_TOLERANCE = 1e-12

# closed-form Gram entries for unit-variance Gaussian rows at means -1, +1
# with unit noise: overlap integral exp(-(a-b)^2/4) / (2 sqrt(pi))
K_DIAG = 1.0 / (2.0 * math.sqrt(math.pi))          # 0.2820947917738781
K_OFF = math.exp(-1.0) / (2.0 * math.sqrt(math.pi))  # 0.10377687435514868
C_MEAN_SHIFT = 0.1783179174191889

square_matrices = arrays(
    np.float64,
    (MATRIX_DIMENSION, MATRIX_DIMENSION),
    elements=st.floats(min_value=-4.0, max_value=4.0),
)


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
    for i in range(family.I):
        for j in range(family.I):
            assert K[i, j] == weighted_inner_product(family.eta[i], family.eta[j], noise, grid)


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
    assert np.allclose(kern.L @ kern.L, kern.K, atol=1e-12)
    # the pseudo-inverse must invert L on the range of Q
    assert np.allclose(kern.L @ kern.L_pinv @ kern.Q, kern.Q, atol=1e-10)


def test_sqrt_and_pinv_rejects_degenerate_input():
    with pytest.raises(ValueError, match="adkyle.kernel"):
        sqrt_and_pinv(np.zeros((3, 3)))


@seed(1)
@given(a=square_matrices)
@settings(deadline=None, max_examples=40)
def test_sqrt_and_pinv_reconstructs_psd_matrices(a):
    M = a @ a.T + 1e-6 * np.eye(MATRIX_DIMENSION)
    L, L_pinv = sqrt_and_pinv(M)
    scale = np.abs(M).max()
    assert np.allclose(L, L.T, atol=0.0)
    assert np.allclose(L_pinv, L_pinv.T, atol=0.0)
    assert np.allclose(L @ L, M, atol=REL_TOLERANCE * max(scale, 1.0))
    # L_pinv L is the orthogonal projector onto the range of M
    P = L_pinv @ L
    assert np.allclose(P @ P, P, atol=1e-8)


@seed(1)
@given(a=square_matrices)
@settings(deadline=None, max_examples=40)
def test_sqrt_and_pinv_handles_rank_deficiency(a):
    # rank-one PSD matrix: outer product of the first row with itself
    v = a[0]
    M = np.outer(v, v)
    if np.abs(M).max() <= 0.0:
        return
    L, L_pinv = sqrt_and_pinv(M)
    assert np.allclose(L @ L, M, atol=1e-8 * max(np.abs(M).max(), 1.0))
    assert np.allclose(L @ L_pinv @ v, v, atol=1e-6 * max(np.abs(v).max(), 1.0))
