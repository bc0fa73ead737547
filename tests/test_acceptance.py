"""End-to-end acceptance battery.

One test per numbered criterion; each prints a single PASS line with its
wall time.  Statistical checks run at three standard errors on frozen seeds,
exact checks at machine precision, and every test enforces its runtime
budget.
"""

import math
import time

import numpy as np

from adkyle import (
    NoiseProfile,
    bl_decompose,
    bl_reconstruct,
    build_canonical_kernel,
    build_state_grid,
    demand_signature,
    efficiency_sweep,
    equilibrium_demand,
    foc_terms,
    impact_surface,
    kyle_single_asset,
    log_likelihoods,
    make_payoff_family,
    posterior_weights,
    simulate_increments,
    solve_alpha_star,
    true_belief_moments,
    weighted_inner_product,
)
from adkyle._rng import standard_normal_matrix
from adkyle.cli import main as cli_main
from conftest import (ALPHA_STAR_BINARY, binary_moments_quadrature, exact_binary_equilibrium,
                      sample_posterior)

SIGMAS = 3.0
ROOT_AGREEMENT = 2e-3
POSTERIOR_AGREEMENT = 1e-8
GRAM_AGREEMENT = 1e-12
NULL_IMPACT_FLOOR = 1e-10  # roundoff allowance for an exactly-zero target
PRODUCT_ULPS = 2.0 * np.spacing(0.5)

_cache: dict = {}


def _setup(kind="gaussian_mean_shift"):
    """Default grid/noise/family/kernel, cached across criteria."""
    if kind not in _cache:
        grid = build_state_grid(-8.0, 8.0, 401)
        noise = NoiseProfile(sigma=np.ones(grid.n))
        params = {
            "gaussian_mean_shift": {"means": [-1.0, 1.0], "sd": 1.0},
            "gaussian_variance": {"mu": 0.0, "sds": [1.0, 1.5]},
            "skew_normal": {"shapes": [4.0, -4.0]},
        }[kind]
        fam = make_payoff_family(kind, params, grid)
        kern = build_canonical_kernel(fam, noise, grid)
        _cache[kind] = (grid, noise, fam, kern)
    return _cache[kind]


def _exact_demand(kind="gaussian_mean_shift"):
    key = ("demand", kind)
    if key not in _cache:
        grid, noise, fam, kern = _setup(kind)
        eq = exact_binary_equilibrium(kern)
        w_star = equilibrium_demand(eq, kern, fam, noise)
        _cache[key] = w_star
    return _cache[key]


def _solved_demand():
    """Equilibrium solve on the default family (shared by A7)."""
    if "solved" not in _cache:
        grid, noise, fam, kern = _setup()
        eq = solve_alpha_star(kern.I)
        w_star = equilibrium_demand(eq, kern, fam, noise)
        _cache["solved"] = (eq, w_star)
    return _cache["solved"]


def _report(tag, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    print(f"{tag}: PASS ({elapsed:.2f}s) {detail}")
    assert elapsed < budget, f"{tag} exceeded its {budget}s budget: {elapsed:.1f}s"


def _phi_quadrature(alpha_bar):
    phi1, phi2 = binary_moments_quadrature(alpha_bar)
    return 1.0 - phi1 - alpha_bar * alpha_bar * phi2


def test_a01_binary_fixed_point_anchors():
    t0 = time.perf_counter()
    assert _phi_quadrature(0.0) == 0.5  # uniform posterior, exactly
    tail = _phi_quadrature(10.0)
    assert tail < 0.0
    _report("A1 binary anchors", f"phi(0)=0.5 exact, phi(10)={tail:.1e}", t0, 1.0)


def test_a02_log_ratio_law():
    t0 = time.perf_counter()
    n = 200_000
    for alpha_bar in (0.5, 1.0, 2.0):
        xi = standard_normal_matrix(42, n, 2)
        logits, _ = sample_posterior(alpha_bar, 2, 0, xi)
        lr = logits[:, 0] - logits[:, 1]
        mean, var = float(lr.mean()), float(lr.var(ddof=1))
        se_mean = float(lr.std(ddof=1)) / math.sqrt(n)
        se_var = var * math.sqrt(2.0 / (n - 1))
        assert abs(mean - alpha_bar**2) <= SIGMAS * se_mean
        assert abs(var - 2.0 * alpha_bar**2) <= SIGMAS * se_var
    _report("A2 log-ratio law", "mean/var match at alpha 0.5, 1, 2", t0, 10.0)


def test_a03_root_agreement_with_quadrature_oracle():
    t0 = time.perf_counter()
    eq = solve_alpha_star(2)
    # dense scan of the deterministic moment equation, then bisection
    alphas = np.linspace(1.0, 2.0, 1001)
    vals = [_phi_quadrature(a) for a in alphas]
    k = next(i for i in range(1000) if vals[i] > 0.0 >= vals[i + 1])
    lo, hi = alphas[k], alphas[k + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _phi_quadrature(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert abs(oracle - ALPHA_STAR_BINARY) < 1e-9  # sanity: scan finds sqrt(2)
    gap = abs(eq.alpha_star - oracle)
    assert gap < ROOT_AGREEMENT
    assert gap <= eq.alpha_std_err  # the solver's error bound covers the oracle
    _report("A3 root agreement", f"|solve-oracle|={gap:.2e} <= {eq.alpha_std_err:.1e}", t0, 60.0)


def test_a04_single_asset_benchmark():
    t0 = time.perf_counter()
    bench = kyle_single_asset(1.0, 1.0)
    assert bench.beta == 1.0 and bench.lam == 0.5
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        sigma_v, sigma_eps = rng.uniform(1e-3, 1e3, size=2)
        b = kyle_single_asset(sigma_v, sigma_eps)
        worst = max(worst, abs(b.beta * b.lam - 0.5))
    assert worst <= PRODUCT_ULPS
    _report("A4 benchmark", f"beta*lam within {worst/np.spacing(0.5):.0f} ulp of 1/2", t0, 1.0)


def test_a05_market_profit_sufficient_statistic():
    t0 = time.perf_counter()
    grid, noise, fam, kern = _setup()
    w_star = _exact_demand()
    profiles = [
        w_star[0],
        0.7 * w_star[1],
        0.8 * np.exp(-0.5 * np.square((grid.nodes - 0.5) / 0.9)),
    ]
    f = w_star / np.square(noise.sigma)
    worst_z = 0.0
    for w_row in profiles:
        inc, _ = simulate_increments(w_row, noise, grid, seed=555, n_paths=10_000)
        for i in range(2):
            vals = inc @ f[i, :-1]
            target = weighted_inner_product(w_row, w_star[i], noise, grid)
            se = float(vals.std(ddof=1)) / math.sqrt(len(vals))
            z = abs(float(vals.mean()) - target) / se
            worst_z = max(worst_z, z)
            assert z <= SIGMAS
    _report("A5 sufficient statistic", f"3 drift profiles, worst z={worst_z:.2f}", t0, 30.0)


def test_a06_canonical_pathwise_equivalence():
    t0 = time.perf_counter()
    grid, noise, fam, kern = _setup()
    w_star = _exact_demand()
    g = w_star / noise.sigma
    sqh = math.sqrt(grid.h)
    inc, shocks = simulate_increments(w_star[0], noise, grid, seed=9000, n_paths=100)
    pi = posterior_weights(log_likelihoods(w_star, inc, noise, grid))
    nu = shocks @ g[:, :-1].T * sqh / ALPHA_STAR_BINARY
    _, canonical = sample_posterior(ALPHA_STAR_BINARY, 2, 0, nu)
    worst = float(np.max(np.abs(canonical - pi)))
    assert worst < POSTERIOR_AGREEMENT
    _report("A6 posterior equivalence", f"100 paths, max gap={worst:.1e}", t0, 10.0)


def test_a07_foc_closure_and_stationarity():
    t0 = time.perf_counter()
    grid, noise, fam, kern = _setup()
    eq, w_star = _solved_demand()
    x = grid.nodes

    # decomposition closes against common-shock finite differences
    rng = np.random.default_rng(99)
    for k in range(5):
        c1, c2 = rng.uniform(-3, 3, 2)
        a1, a2 = rng.uniform(-1, 1, 2)
        s1, s2 = rng.uniform(0.5, 2.0, 2)
        w = a1 * np.exp(-0.5 * np.square((x - c1) / s1))
        v = a2 * np.exp(-0.5 * np.square((x - c2) / s2))
        rep = foc_terms(w, v, w_star, fam, 0, noise, grid, n_paths=20_000, seed=100 + k)
        assert abs(rep.diff) <= SIGMAS * rep.std_err_fd

    # the gradient vanishes along every centered payoff direction
    mbar = fam.eta.mean(axis=0)
    worst_ratio = 0.0
    for i in range(fam.I):
        v = fam.eta[i] - mbar
        rep = foc_terms(
            w_star[0], v, w_star, fam, 0, noise, grid, n_paths=20_000, seed=7
        )
        ratio = abs(rep.fd_total) / (SIGMAS * rep.std_err_fd)
        worst_ratio = max(worst_ratio, ratio)
        assert abs(rep.fd_total) <= SIGMAS * rep.std_err_fd
    _report(
        "A7 first-order closure",
        f"5 pairs closed, stationarity ratio={worst_ratio:.2f}", t0, 300.0,
    )


def test_a08_cross_impact_sign_patterns():
    t0 = time.perf_counter()
    grid, noise, ms_fam, _ = _setup()
    ms_demand = _exact_demand()
    _, _, var_fam, _ = _setup("gaussian_variance")
    var_demand = _exact_demand("gaussian_variance")

    # signal-invariant source point: the closed form is zero up to roundoff
    null, _ = impact_surface([1.0], [0.0], ms_demand, ms_fam, noise, grid)
    assert abs(null.item()) <= NULL_IMPACT_FLOOR

    # opposed tail demand: strictly negative cross impact
    neg, neg_se = impact_surface([2.0], [-2.0], ms_demand, ms_fam, noise, grid)
    assert neg.item() < -SIGMAS * neg_se.item()

    # aligned (variance-levered) demand: nonnegative cross impact
    pos, pos_se = impact_surface([2.0], [-2.0], var_demand, var_fam, noise, grid)
    assert pos.item() >= -SIGMAS * pos_se.item()
    _report(
        "A8 impact signs",
        f"null={null.item():.1e}, neg={neg.item():.2e}, pos={pos.item():.2e}", t0, 120.0,
    )


def test_a09_efficiency_declines_with_crowding():
    t0 = time.perf_counter()
    rows = efficiency_sweep()
    for a, b in zip(rows, rows[1:]):
        decrement = a.ie - b.ie
        assert decrement > SIGMAS * math.hypot(a.ie_std_err, b.ie_std_err)
    for row in rows:
        baseline = 1.0 - true_belief_moments(0.0, row.I)[0]
        assert abs(baseline - 1.0 / row.I) <= 1e-12
    _report(
        "A9 crowding monotonicity",
        "IE " + " > ".join(f"{r.ie:.4f}" for r in rows), t0, 600.0,
    )


def test_a10_family_and_noise_invariance():
    # one canonical root serves every I = 2 kernel: each family's demand at each noise
    # level has the sigma-Gram alpha*^2 Q, and doubling the noise doubles it exactly
    t0 = time.perf_counter()
    grid, noise, ms_fam, _ = _setup()
    _, _, var_fam, _ = _setup("gaussian_variance")
    eq = solve_alpha_star(2)
    gap = 0.0
    for fam in (ms_fam, var_fam):
        demands = []
        for scaled in (noise, NoiseProfile(2.0 * noise.sigma)):
            kern = build_canonical_kernel(fam, scaled, grid)
            w_star = equilibrium_demand(eq, kern, fam, scaled)
            gram = np.array([[weighted_inner_product(a, b, scaled, grid) for b in w_star]
                             for a in w_star])
            gap = max(gap, float(np.abs(gram - eq.alpha_star**2 * kern.Q).max()))
            demands.append(w_star)
        assert np.array_equal(demands[1], 2.0 * demands[0])
    assert gap < GRAM_AGREEMENT
    _report("A10 invariance", f"Gram gap {gap:.1e} for both families, noise doubling exact",
            t0, 180.0)


def test_a11_replication_round_trip():
    t0 = time.perf_counter()
    # quadratic demand, production grid
    g = build_state_grid(-8.0, 8.0, 401)
    w = np.square(g.nodes)
    err = float(np.max(np.abs(bl_reconstruct(bl_decompose(w, g, 0.0), g) - w)))
    assert err < 1e-3 * float(np.max(np.abs(w)))
    # refinement factor on a half-step grid pair
    errs = []
    for n in (101, 201):
        gg = build_state_grid(-4.0, 4.0, n)
        ww = np.square(gg.nodes)
        errs.append(float(np.max(np.abs(bl_reconstruct(bl_decompose(ww, gg, 0.0), gg) - ww))))
    factor = errs[0] / errs[1]
    assert 3.2 < factor < 4.8
    # equilibrium demand round trip
    grid, noise, fam, kern = _setup()
    w_star = _exact_demand()
    rel = max(
        float(np.max(np.abs(bl_reconstruct(bl_decompose(row, grid, 0.0), grid) - row)))
        / float(np.max(np.abs(row)))
        for row in w_star
    )
    assert rel < 1e-2
    _report(
        "A11 replication",
        f"x^2 err={err:.1e}, refinement x{factor:.2f}, demand rel={rel:.1e}", t0, 5.0,
    )


def test_a12_demand_signatures():
    t0 = time.perf_counter()
    expected = {
        "gaussian_mean_shift": ("bearish", "bullish"),
        "gaussian_variance": ("short_vol", "long_vol"),
        "skew_normal": ("right_skew", "left_skew"),
    }
    got = {}
    for kind in expected:
        grid, noise, fam, kern = _setup(kind)
        w_star = _exact_demand(kind)
        got[kind] = tuple(demand_signature(row, fam, grid) for row in w_star)
        assert got[kind] == expected[kind]
    _report("A12 signatures", "; ".join(f"{k}: {v[0]}/{v[1]}" for k, v in got.items()), t0, 120.0)


FAST_CONFIG = """
grid.n = 101
mc.seed = 3
mc.n_samples = 20000
mc.n_paths = 400
impact.n_sub = 9
"""

SUBCOMMANDS = [
    ["solve"],
    ["simulate", "--paths", "2"],
    ["impact"],
    ["efficiency"],
    ["options"],
    ["verify-foc"],
    ["kernel", "dump"],
    ["posterior", "probe", "--alpha-bar", "1.0"],
]


def test_a13_subcommands_are_bitwise_deterministic(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CONFIG)
    checked = 0
    for argv in SUBCOMMANDS:
        name = "_".join(argv[:2]).replace("-", "_")
        out_a = tmp_path / f"{name}_a"
        out_b = tmp_path / f"{name}_b"
        for out in (out_a, out_b):
            code = cli_main(argv + ["-c", str(cfg), "-o", str(out)])
            assert code == 0, f"{argv} exited {code}"
        names_a = sorted(p.name for p in out_a.glob("*.csv"))
        names_b = sorted(p.name for p in out_b.glob("*.csv"))
        assert names_a == names_b and names_a
        for fname in names_a:
            if fname == "manifest.csv":  # carries wall time by design
                continue
            assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes(), (
                f"{argv}: {fname} differs between reruns"
            )
            checked += 1
    _report("A13 determinism", f"{len(SUBCOMMANDS)} subcommands, {checked} files bitwise equal", t0, 300.0)
