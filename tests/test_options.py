"""Static-replication decomposition and demand signatures."""

import dataclasses

import numpy as np
import pytest

from adkyle import (
    bl_decompose,
    bl_reconstruct,
    build_state_grid,
    demand_signature,
)
from adkyle.cli import _solved
from adkyle.config import parse_config_text
from conftest import strip_legs_oracle

# second-difference replication error on the quadratic is exactly one grid
# step squared at the boundary strikes
QUADRATIC_ERR_N101 = 0.00639999999999219
QUADRATIC_ERR_N201 = 0.001599999999996271
RECONSTRUCTION_TOLERANCE = 1e-10
REFINEMENT_WINDOW = (3.2, 4.8)
ORACLE_REL = 1e-13  # leg error against the long-double oracle, relative to the largest |leg|
SEED7_CONFIG = "mc.seed = 7\ngrid.n = 401\n"  # the benchmark's grid; the demand draws nothing


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


def test_reconstruction_is_exact_at_interior_nodes():
    # the end nodes miss by (h^2/2) W'' at the outermost strikes, every other node only by rounding
    g = build_state_grid(-4.0, 4.0, 101)
    w = np.sin(g.nodes)
    strip = bl_decompose(w, g, k0=0.0)
    err = bl_reconstruct(strip, g) - w
    assert np.max(np.abs(err[1:-1])) < 1e-14
    d2 = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / g.h ** 2
    ends = -0.5 * g.h ** 2 * d2[[0, -1]]
    assert err[[0, -1]] == pytest.approx(ends, rel=1e-9)


def _legs(strip, grid):
    """bl_reconstruct's put and call legs, each alone: the rest of the strip zeroed."""
    bare = dataclasses.replace(strip, bond=0.0, underlying=0.0)
    return (bl_reconstruct(dataclasses.replace(bare, call_density=0 * strip.call_density), grid),
            bl_reconstruct(dataclasses.replace(bare, put_density=0 * strip.put_density), grid))


def assert_legs_match_the_oracle(w, grid, k0):
    strip = bl_decompose(w, grid, k0)
    got, want = _legs(strip, grid), strip_legs_oracle(strip, grid)
    scale = max(float(np.max(np.abs(leg))) for leg in want)
    assert scale > 0.0
    for g, o in zip(got, want):
        assert float(np.max(np.abs(g - o))) <= ORACLE_REL * scale


@pytest.fixture(scope="module")
def seed7_demand():
    grid, _, _, _, _, w_star = _solved(parse_config_text(SEED7_CONFIG))
    return grid, w_star


@pytest.mark.parametrize("pivot", ["mean", 1, -2])
def test_legs_match_the_pairwise_payoff_oracle(seed7_demand, pivot):
    # at node 1 the put leg, at node n-2 the call leg, has a single strike (and is zero)
    grid, w_star = seed7_demand
    k0 = 0.0 if pivot == "mean" else float(grid.nodes[pivot])
    for row in w_star:
        assert_legs_match_the_oracle(row, grid, k0)


def test_legs_far_from_zero_match_the_oracle():
    # strikes near 1e4 with legs of order 1: the closed form S1(x) - x S0(x) cancels here
    g = build_state_grid(1e4, 1e4 + 16.0, 4001)
    assert_legs_match_the_oracle(np.sin(g.nodes - 1e4), g, float(g.nodes[2000]))


def test_strip_arrays_are_read_only(mean_shift_demand, grid):
    # put_density and call_density share the pivot's entry; no write may reach either
    _, w_star = mean_shift_demand
    strip = bl_decompose(w_star[0], grid, k0=0.0)
    pivot = float(strip.call_density[0])
    for name in ("put_strikes", "put_density", "call_strikes", "call_density"):
        arr = getattr(strip, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[-1] = 1.0
    assert strip.call_density[0] == pivot == strip.put_density[-1]


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

    expected = (
        (mean_shift_family, ("bearish", "bullish")),
        (variance_family, ("short_vol", "long_vol")),
        (skew_family, ("right_skew", "left_skew")),
    )
    for fam, signatures in expected:
        kern = build_canonical_kernel(fam, unit_noise, grid)
        eq = exact_binary_equilibrium(kern)
        w_star = equilibrium_demand(eq, kern, fam, unit_noise)
        got = tuple(demand_signature(row, fam, grid) for row in w_star)
        assert got == signatures


def test_flat_demand_has_flat_signature(mean_shift_family, grid):
    assert demand_signature(np.zeros(grid.n), mean_shift_family, grid) == "flat"


def test_signature_is_scale_invariant(mean_shift_demand, mean_shift_family, grid):
    # the probe threshold is relative, so rescaling cannot change the label
    _, w_star = mean_shift_demand
    for row in w_star:
        label = demand_signature(row, mean_shift_family, grid)
        assert demand_signature(1e-6 * row, mean_shift_family, grid) == label
