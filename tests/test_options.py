"""Static-replication decomposition and demand signatures."""

import numpy as np
import pytest

from adkyle import (
    bl_decompose,
    bl_reconstruct,
    build_state_grid,
    demand_signature,
)

# second-difference replication error on the quadratic is exactly one grid
# step squared at the boundary strikes
QUADRATIC_ERR_N101 = 0.00639999999999219
QUADRATIC_ERR_N201 = 0.001599999999996271
RECONSTRUCTION_TOLERANCE = 1e-10
REFINEMENT_WINDOW = (3.2, 4.8)


def quad_error(n):
    g = build_state_grid(-4.0, 4.0, n)
    w = np.square(g.nodes)
    strip = bl_decompose(w, g, k0=0.0)
    return float(np.max(np.abs(bl_reconstruct(strip, g) - w))), g


def test_quadratic_round_trip_error_is_one_step_squared():
    err_coarse, g_coarse = quad_error(101)
    err_fine, _ = quad_error(201)
    assert err_coarse == pytest.approx(QUADRATIC_ERR_N101, rel=1e-9)
    assert err_fine == pytest.approx(QUADRATIC_ERR_N201, rel=1e-9)
    assert err_coarse == pytest.approx(g_coarse.h ** 2, rel=1e-9)
    ratio = err_coarse / err_fine
    assert REFINEMENT_WINDOW[0] < ratio < REFINEMENT_WINDOW[1]


def test_decomposition_identity_at_the_pivot(mean_shift_demand, grid):
    _, w_star = mean_shift_demand
    strip = bl_decompose(w_star[0], grid, k0=0.0)
    i0 = int(np.where(grid.nodes == strip.k0)[0][0])
    assert strip.bond + strip.k0 * strip.underlying == pytest.approx(
        w_star[0][i0], abs=1e-12
    )


def test_strike_ranges_partition_at_the_pivot(mean_shift_demand, grid):
    _, w_star = mean_shift_demand
    strip = bl_decompose(w_star[0], grid, k0=0.0)
    assert strip.put_strikes.max() == strip.k0
    assert strip.call_strikes.min() == strip.k0
    assert np.all(np.diff(strip.put_strikes) > 0)
    assert np.all(np.diff(strip.call_strikes) > 0)
    # densities are curvature readings on the interior of the grid
    assert strip.put_density.shape == strip.put_strikes.shape
    assert strip.call_density.shape == strip.call_strikes.shape


def test_equilibrium_demand_round_trip(mean_shift_demand, grid):
    _, w_star = mean_shift_demand
    for row in w_star:
        strip = bl_decompose(row, grid, k0=0.0)
        rec = bl_reconstruct(strip, grid)
        assert np.max(np.abs(rec - row)) < RECONSTRUCTION_TOLERANCE


def test_pivot_must_be_an_interior_node(mean_shift_demand, grid):
    _, w_star = mean_shift_demand
    interior = rf"adkyle.model: .* is not a grid node with index in \[1, {grid.n - 2}\]"
    for k0 in (grid.x_min, 0.017):
        with pytest.raises(ValueError, match=interior):
            bl_decompose(w_star[0], grid, k0=k0)


def test_signatures_of_the_three_families(
    grid, unit_noise, mean_shift_family, variance_family, skew_family
):
    from conftest import exact_binary_equilibrium
    from adkyle import build_canonical_kernel, equilibrium_demand

    expected = {
        "gaussian_mean_shift": ("bearish", "bullish"),
        "gaussian_variance": ("short_vol", "long_vol"),
        "skew_normal": ("right_skew", "left_skew"),
    }
    for fam in (mean_shift_family, variance_family, skew_family):
        kern = build_canonical_kernel(fam, unit_noise, grid)
        eq = exact_binary_equilibrium(kern)
        w_star = equilibrium_demand(eq, kern, fam, unit_noise)
        got = tuple(demand_signature(row, fam, grid) for row in w_star)
        assert got == expected[fam.family_kind]


def test_flat_demand_has_flat_signature(mean_shift_family, grid):
    assert demand_signature(np.zeros(grid.n), mean_shift_family, grid) == "flat"


def test_signature_is_scale_invariant(mean_shift_demand, mean_shift_family, grid):
    # the probe threshold is relative, so rescaling cannot change the label
    _, w_star = mean_shift_demand
    for row in w_star:
        label = demand_signature(row, mean_shift_family, grid)
        assert demand_signature(1e-6 * row, mean_shift_family, grid) == label
