"""State grid, noise profile, payoff families, and the weighted inner product."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adkyle import (
    NoiseProfile,
    bl_decompose,
    build_state_grid,
    make_payoff_family,
    normalized_family,
    prior_mixture,
    weighted_inner_product,
)
from adkyle.model import FAMILY_PARAMS, _normal_cdf

VECTOR_LENGTH = 41
ABS_TOLERANCE = 1e-12
MASS_TOLERANCE = 1e-12
# agreement between grid quadrature and closed-form Gaussian integrals on
# [-8, 8]; limited by row renormalization, not by the trapezoid rule
ANALYTIC_TOLERANCE = 1e-10

finite_vectors = arrays(
    np.float64,
    VECTOR_LENGTH,
    elements=st.floats(min_value=-10.0, max_value=10.0),
)


def small_grid():
    return build_state_grid(-2.0, 2.0, VECTOR_LENGTH)


def small_noise():
    g = small_grid()
    return NoiseProfile(sigma=np.full(g.n, 0.7))


def test_grid_nodes_and_weights():
    g = build_state_grid(-8.0, 8.0, 401)
    assert g.nodes[0] == -8.0
    assert g.nodes[-1] == 8.0
    assert g.n == 401
    assert g.h == pytest.approx(0.04, abs=0.0)
    # trapezoid pattern: half weight at both endpoints, h inside
    assert g.quad_weights[0] == g.h / 2.0
    assert g.quad_weights[-1] == g.h / 2.0
    assert np.all(g.quad_weights[1:-1] == g.h)
    assert g.quad_weights.sum() == pytest.approx(16.0, abs=ABS_TOLERANCE)


def test_grid_rejects_bad_arguments():
    with pytest.raises(ValueError, match="adkyle.model"):
        build_state_grid(-1.0, 1.0, 2)
    with pytest.raises(ValueError, match="adkyle.model"):
        build_state_grid(1.0, -1.0, 11)
    with pytest.raises(ValueError, match="adkyle.model"):
        build_state_grid(0.0, math.inf, 11)
    with pytest.raises(ValueError, match="adkyle.model: grid bounds and their span"):
        build_state_grid(-1e308, 1e308, 11)  # finite bounds, overflowing span


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_node_queries_reject_non_finite_points(grid, x):
    for query in (lambda: grid.nearest(x), lambda: grid.node(x),
                  lambda: bl_decompose(np.zeros(grid.n), grid, x)):
        with pytest.raises(ValueError, match="adkyle.model: node query x must be finite"):
            query()


def test_node_queries_clamp_huge_finite_points(grid):
    # (x - x_min) / h overflows to inf here; the clamp must come before int()
    assert grid.nearest(1e308) == grid.n - 1
    assert grid.nearest(-1e308, margin=1) == 1


def test_noise_profile_validation():
    g = small_grid()
    with pytest.raises(ValueError, match="adkyle.model"):
        NoiseProfile(sigma=np.zeros(g.n))
    with pytest.raises(ValueError, match="adkyle.model"):
        NoiseProfile(sigma=-np.ones(g.n))
    # positive and finite, but 1/sigma^2 overflows (1e-200) or vanishes (1e200)
    for value in (1e-200, 1e200, math.nan):
        with pytest.raises(ValueError, match="adkyle.model"):
            NoiseProfile(sigma=np.full(g.n, value))


def test_inner_product_matches_gaussian_integrals():
    """Closed forms: int phi_a phi_b dx = exp(-(a-b)^2/4) / (2 sqrt(pi))."""
    g = build_state_grid(-8.0, 8.0, 401)
    noise = NoiseProfile(sigma=np.ones(g.n))
    phi_m = np.exp(-0.5 * np.square(g.nodes + 1.0)) / math.sqrt(2.0 * math.pi)
    phi_p = np.exp(-0.5 * np.square(g.nodes - 1.0)) / math.sqrt(2.0 * math.pi)
    same = 1.0 / (2.0 * math.sqrt(math.pi))
    cross = math.exp(-1.0) / (2.0 * math.sqrt(math.pi))
    assert weighted_inner_product(phi_m, phi_m, noise, g) == pytest.approx(
        same, abs=ANALYTIC_TOLERANCE
    )
    assert weighted_inner_product(phi_m, phi_p, noise, g) == pytest.approx(
        cross, abs=ANALYTIC_TOLERANCE
    )


def test_inner_product_noise_scaling():
    # doubling sigma divides the inner product by exactly 4
    g = small_grid()
    f = np.sin(g.nodes)
    n1 = NoiseProfile(sigma=np.ones(g.n))
    n2 = NoiseProfile(sigma=2.0 * np.ones(g.n))
    assert weighted_inner_product(f, f, n2, g) == weighted_inner_product(f, f, n1, g) / 4.0


@seed(1)
@given(f=finite_vectors, g=finite_vectors)
@settings(deadline=None, max_examples=50)
def test_inner_product_symmetry(f, g):
    grid = small_grid()
    noise = small_noise()
    assert weighted_inner_product(f, g, noise, grid) == weighted_inner_product(
        g, f, noise, grid
    )


@seed(1)
@given(f=finite_vectors, g=finite_vectors, h=finite_vectors)
@settings(deadline=None, max_examples=50)
def test_inner_product_bilinearity(f, g, h):
    grid = small_grid()
    noise = small_noise()
    lhs = weighted_inner_product(f, g + h, noise, grid)
    rhs = weighted_inner_product(f, g, noise, grid) + weighted_inner_product(
        f, h, noise, grid
    )
    assert np.isclose(lhs, rhs, rtol=1e-10, atol=1e-10)


@seed(1)
@given(f=finite_vectors)
@settings(deadline=None, max_examples=50)
def test_inner_product_nonnegative_on_diagonal(f):
    grid = small_grid()
    noise = small_noise()
    assert weighted_inner_product(f, f, noise, grid) >= 0.0


def test_inner_product_of_stacks_is_bitwise_the_row_calls(grid):
    # (k, 1, n) against (I, n) broadcasts to (k, I): each entry sums the same products as
    # the call on its two rows; a 1-D pair still gives a float
    rng = np.random.default_rng(3)
    noise = NoiseProfile(sigma=1.0 + 0.05 * (grid.nodes - grid.x_min))
    f, g = rng.normal(size=(4, 1, grid.n)), rng.normal(size=(3, grid.n))
    stacked = weighted_inner_product(f, g, noise, grid)
    assert stacked.shape == (4, 3)
    rows = [[weighted_inner_product(a, b, noise, grid) for b in g] for a in f[:, 0]]
    assert all(type(x) is float for row in rows for x in row)
    np.testing.assert_array_equal(stacked, rows)
    for bad in (f[..., :-1], np.ones((3, grid.n + 1))):
        with pytest.raises(ValueError, match="adkyle.model: length mismatch"):
            weighted_inner_product(bad, g, noise, grid)


@pytest.mark.parametrize(
    "kind,params",
    [
        ("gaussian_mean_shift", {"means": [-1.0, 1.0], "sd": 1.0}),
        ("gaussian_variance", {"mu": 0.0, "sds": [1.0, 1.5]}),
        ("skew_normal", {"shapes": [4.0, -4.0]}),
    ],
)
def test_family_rows_are_normalized_densities(kind, params, grid):
    fam = make_payoff_family(kind, params, grid)
    assert fam.I == 2
    assert fam.labels == ("s1", "s2")
    assert np.all(fam.eta >= 0.0)
    for row in fam.eta:
        assert float(grid.quad_weights @ row) == pytest.approx(1.0, abs=MASS_TOLERANCE)


def test_mean_shift_rows_peak_at_their_means(grid):
    fam = make_payoff_family("gaussian_mean_shift", {"means": [-1.0, 1.0], "sd": 1.0}, grid)
    assert grid.nodes[np.argmax(fam.eta[0])] == pytest.approx(-1.0, abs=grid.h)
    assert grid.nodes[np.argmax(fam.eta[1])] == pytest.approx(1.0, abs=grid.h)


def test_variance_rows_order_peak_heights(grid):
    fam = make_payoff_family("gaussian_variance", {"mu": 0.0, "sds": [1.0, 1.5]}, grid)
    mid = grid.n // 2
    assert fam.eta[0, mid] > fam.eta[1, mid]  # tighter density is taller at mu


def test_skew_rows_are_moment_matched(grid):
    # location/scale are chosen so each row has mean 0, variance 1
    fam = make_payoff_family("skew_normal", {"shapes": [4.0, -4.0]}, grid)
    for row in fam.eta:
        m = float(grid.quad_weights @ (grid.nodes * row))
        v = float(grid.quad_weights @ (np.square(grid.nodes) * row)) - m * m
        assert abs(m) < 1e-5
        assert abs(v - 1.0) < 1e-5
    assert np.allclose(fam.eta[0], fam.eta[1][::-1], atol=1e-12)


def test_skew_shapes_past_the_square_overflow_keep_the_moment_match(grid):
    # at |a| > 1.3e154, a * a overflows: delta = a / sqrt(1 + a * a) read 0, not 1, and the
    # component lost its centring; past |a| ~ 1e150 the rows no longer move with |a|
    far = make_payoff_family("skew_normal", {"shapes": [1e300, -1e300]}, grid)
    near = make_payoff_family("skew_normal", {"shapes": [1e150, -1e150]}, grid)
    np.testing.assert_array_equal(far.eta, near.eta)


def test_normal_cdf_agrees_with_scipy_ndtr():
    # the skew rows' Phi is erfc(-v / sqrt(2)) / 2 from math.erfc; scipy's ndtr is an
    # independent implementation of the same function.  Both round differently (in the far
    # tail each is off by up to about 2,000 ulps), so the gap is bounded, not zero: 8e-15
    # relative (36 ulps) in the body, 1e-12 relative down to 1e-300, and below that both are
    # within 1e-300 of 0.  The ends are exact
    from scipy.special import ndtr

    v = np.linspace(-40.0, 10.0, 500_001)
    phi, ref = _normal_cdf(v), ndtr(v)
    assert phi.dtype == np.float64 and np.all((phi >= 0.0) & (phi <= 1.0))
    body, tail = ref > 1e-5, ref > 1e-300
    assert np.max(np.abs(phi[body] - ref[body]) / ref[body]) <= 8e-15
    assert np.max(np.abs(phi[tail] - ref[tail]) / ref[tail]) <= 1e-12
    assert np.max(phi[~tail]) <= 1e-300
    np.testing.assert_array_equal(_normal_cdf(np.array([-np.inf, 0.0, np.inf, np.nan])),
                                  [0.0, 0.5, 1.0, np.nan])


def test_tabulated_family_round_trip(grid):
    base = make_payoff_family("gaussian_mean_shift", {"means": [-1.0, 1.0], "sd": 1.0}, grid)
    fam = normalized_family(base.eta, grid)
    # rows are re-normalized on ingest, which can shift values by an ulp
    assert np.allclose(fam.eta, base.eta, rtol=1e-14, atol=0.0)


def test_prior_mixture_is_row_average(grid, mean_shift_family):
    mix = prior_mixture(mean_shift_family)
    assert np.array_equal(mix, mean_shift_family.eta.mean(axis=0))
    assert float(grid.quad_weights @ mix) == pytest.approx(1.0, abs=MASS_TOLERANCE)


def test_family_narrower_than_the_grid_step_is_rejected(grid):
    # below h the kernel measures the grid, not the family; the guard comes
    # before any density, so a tiny sd cannot even overflow first
    too_narrow = [
        ("gaussian_mean_shift", {"means": [-1.0, 1.0], "sd": grid.h / 2}, grid),
        ("gaussian_mean_shift", {"means": [-1.0, 1.0], "sd": 1e-300}, grid),
        ("gaussian_variance", {"mu": 0.0, "sds": [1.0, grid.h / 2]}, grid),
        ("skew_normal", {"shapes": [-2.0, 2.0]}, build_state_grid(-8.0, 8.0, 9)),
    ]
    for kind, params, g in too_narrow:
        with np.errstate(all="raise"), pytest.raises(ValueError, match="adkyle.model: .*grid step"):
            make_payoff_family(kind, params, g)
    # a component exactly one step wide is kept
    make_payoff_family("gaussian_mean_shift", {"means": [-1.0, 1.0], "sd": grid.h}, grid)
    make_payoff_family("gaussian_variance", {"mu": 0.0, "sds": [grid.h, 1.0]}, grid)
    make_payoff_family("skew_normal", {"shapes": [-2.0, 2.0]}, build_state_grid(-8.0, 8.0, 17))


def test_gaussian_family_checks_fire_in_order(grid):
    # signal count, then positivity, then the grid step, then the mean: the first failing
    # check names the error, whichever of the two Gaussian kinds is built
    far, narrow = 10.0 * (grid.x_max - grid.x_min), grid.h / 2
    cases = [
        ("gaussian_mean_shift", {"means": [far], "sd": -1.0}, "need at least two signals"),
        ("gaussian_mean_shift", {"means": [far, 0.0], "sd": -1.0}, "nonpositive variance"),
        ("gaussian_mean_shift", {"means": [far, 0.0], "sd": narrow}, "below the grid step"),
        ("gaussian_mean_shift", {"means": [0.0, far], "sd": 1.0}, "far outside the grid"),
        ("gaussian_variance", {"mu": far, "sds": [narrow]}, "need at least two signals"),
        ("gaussian_variance", {"mu": far, "sds": [narrow, -1.0]}, "nonpositive variance"),
        ("gaussian_variance", {"mu": far, "sds": [1.0, narrow]}, "below the grid step"),
        ("gaussian_variance", {"mu": far, "sds": [1.0, 2.0]}, "far outside the grid"),
    ]
    for kind, params, message in cases:
        with pytest.raises(ValueError, match=f"adkyle.model: .*{message}"):
            make_payoff_family(kind, params, grid)


def test_family_argument_errors(grid):
    with pytest.raises(ValueError, match="adkyle.model"):
        make_payoff_family("unknown_kind", {}, grid)
    with pytest.raises(ValueError, match="adkyle.model"):
        make_payoff_family("gaussian_mean_shift", {"means": [0.0, 1.0], "sd": -1.0}, grid)
    with pytest.raises(ValueError, match="adkyle.model"):
        make_payoff_family("gaussian_mean_shift", {"means": [0.0], "sd": 1.0}, grid)
    with pytest.raises(ValueError, match="adkyle.model"):
        normalized_family(-np.ones((2, grid.n)), grid)


def _reference_family(kind, params, grid):
    """Each kind's own branch of the family builder, one row per component: eta, or the
    text of the first error.  The skew rows take the library's Phi, which
    test_normal_cdf_agrees_with_scipy_ndtr checks, so the comparison stays bitwise."""
    x, midpoint, span = grid.nodes, 0.5 * (grid.x_min + grid.x_max), grid.x_max - grid.x_min

    def pdf(z):
        with np.errstate(over="ignore"):
            return np.exp(-0.5 * np.square(z)) / math.sqrt(2.0 * math.pi)

    def check_mean(mu):
        if abs(mu - midpoint) > span:
            raise ValueError(f"adkyle.model: component mean {mu} lies far outside the grid")

    def check_sd(sd):
        if sd < grid.h:
            raise ValueError(f"adkyle.model: component sd {sd} is below the grid step {grid.h}")

    try:
        if kind in ("gaussian_mean_shift", "gaussian_variance"):
            if kind == "gaussian_mean_shift":
                locs = [float(m) for m in params["means"]]
                scales = [float(params["sd"])] * len(locs)
            else:
                scales = [float(s) for s in params["sds"]]
                locs = [float(params["mu"])] * len(scales)
            if len(locs) < 2:
                raise ValueError("adkyle.model: need at least two signals")
            if any(s <= 0.0 for s in scales):
                raise ValueError("adkyle.model: nonpositive variance")
            for s in scales:
                check_sd(s)
            for m in locs:
                check_mean(m)
            rows = np.stack([pdf((x - m) / s) / s for m, s in zip(locs, scales)])
        else:
            shapes = [float(a) for a in params["shapes"]]
            if len(shapes) < 2:
                raise ValueError("adkyle.model: need at least two signals")
            check_sd(1.0)
            rows = []
            for a in shapes:
                delta = a / math.hypot(1.0, a)
                omega = 1.0 / math.sqrt(1.0 - 2.0 * delta * delta / math.pi)
                xi = -omega * delta * math.sqrt(2.0 / math.pi)
                check_mean(xi)
                z = (x - xi) / omega
                rows.append(2.0 / omega * pdf(z) * _normal_cdf(a * z))
            rows = np.stack(rows)
        masses = rows @ grid.quad_weights
        if not np.all((masses > 0.0) & (masses < math.inf)):
            raise ValueError("adkyle.model: a payoff row has no finite, positive mass on the "
                             "grid interval")
    except ValueError as exc:
        return str(exc)
    return rows / masses[:, None]


@st.composite
def _family_cases(draw):
    x_min, span = draw(st.floats(-40.0, 10.0)), draw(st.floats(0.5, 60.0))
    grid = build_state_grid(x_min, x_min + span, draw(st.integers(3, 300)))
    # sds at the grid step, just below it, far below and past every sane width; means
    # inside the grid, past its edges (rows that underflow to mass 0) and far outside
    wide = st.floats(grid.h, grid.h + 3.0)
    sds = st.one_of(wide, wide, wide, st.sampled_from(
        [grid.h, math.nextafter(grid.h, 0.0), 0.5 * grid.h, 0.0, -1.0, 5e-324, 1e300]))
    inside = st.floats(x_min, grid.x_max)
    locs = st.one_of(inside, inside, inside, st.floats(x_min - 1.2 * span, grid.x_max + 1.2 * span))
    shapes = st.one_of(st.floats(-30.0, 30.0), st.floats(1e150, 1e308), st.floats(-1e308, -1e150))
    size = draw(st.sampled_from([1, 2, 2, 3, 4, 8]))  # one signal is too few
    per_signal = lambda values: draw(st.lists(values, min_size=size, max_size=size))
    kind = draw(st.sampled_from(sorted(FAMILY_PARAMS)))
    params = {
        "gaussian_mean_shift": lambda: {"means": per_signal(locs), "sd": draw(sds)},
        "gaussian_variance": lambda: {"sds": per_signal(sds), "mu": draw(locs)},
        "skew_normal": lambda: {"shapes": per_signal(shapes)},
    }[kind]()
    return kind, params, grid


@seed(37)
@given(case=_family_cases())
@settings(deadline=None, max_examples=400)
def test_family_builder_is_bitwise_each_kinds_own_loop(case):
    # the shared count, sd and mean checks fire in each kind's own order and with its
    # text, and every row is the same floating operations as before
    kind, params, grid = case
    with np.errstate(over="ignore"):  # as config_model builds it: a * z may overflow to inf
        expected = _reference_family(kind, params, grid)
        try:
            eta = make_payoff_family(kind, params, grid).eta
        except ValueError as exc:
            assert str(exc) == expected
            return
    assert not isinstance(expected, str), expected
    assert np.array_equal(eta, expected)


def test_normalized_family_gives_each_row_mass_one(grid):
    x = grid.nodes
    rows = np.stack([np.exp(-np.abs(x - 1.0)), 3.0 + np.cos(x), 1e-200 * (x > 0.0)])
    fam = normalized_family(rows, grid)
    assert fam.I == 3
    np.testing.assert_allclose(fam.eta @ grid.quad_weights, 1.0, rtol=0.0, atol=MASS_TOLERANCE)
    masses = rows @ grid.quad_weights
    np.testing.assert_allclose(fam.eta * masses[:, None], rows, rtol=1e-15, atol=0.0)
    for bad in (np.zeros(grid.n), -np.ones(grid.n), np.where(x < 0.0, -1.0, 2.0)):
        with pytest.raises(ValueError, match="adkyle.model: "):
            normalized_family(np.stack([rows[0], bad]), grid)
    for shape in (rows[0], rows[:1], rows[:, :-1], rows[None]):  # not I >= 2 rows of n values
        with pytest.raises(ValueError, match="adkyle.model: need an I x n array of rows"):
            normalized_family(shape, grid)
