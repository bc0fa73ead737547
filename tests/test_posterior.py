"""The posterior quadrature, its Monte Carlo and Gauss-Hermite oracles, and the seed streams."""

import tracemalloc

import numpy as np
import pytest

from adkyle import posterior_moments, true_belief_moments
from adkyle.posterior import QUAD_TOL, softmax_mean
from adkyle import _rng
import adkyle.posterior
from adkyle._rng import block_generator, derive_seed, standard_normal_matrix
from adkyle.config import MIN_MOMENT_SAMPLES, parse_config_text
from conftest import (FLOW_STATISTIC, MC_BLOCK_ROWS, MIN_QUAD_NODES, binary_moments_quadrature,
                      dense_posterior_covariance, moments_from_noise, sample_posterior, softmax,
                      true_belief)

SOFTMAX_TOLERANCE = 1e-15
QUAD_TOLERANCE = 1e-12
MOMENT_SAMPLES = 200_000

# Gauss-Hermite values of the two binary moments, 200 nodes
#   phi1 = E[sigmoid(Z)], phi2 = E[sigmoid(Z) sigmoid(-Z)],
#   Z ~ N(alpha^2, 2 alpha^2)
QUAD_ORACLE = {
    0.5: (0.555939162843465, 0.22203041857826772),
    1.0: (0.675056702337566, 0.1624716488312176),
    2.0: (0.8844908890353335, 0.05775455548214946),
}


def test_softmax_rows_are_distributions():
    logits = np.array([[0.0, 1.0, -2.0], [5.0, 5.0, 5.0]])
    q = softmax(logits)
    assert np.all(q > 0.0)
    assert np.allclose(q.sum(axis=-1), 1.0, atol=SOFTMAX_TOLERANCE)
    assert np.allclose(q[1], 1.0 / 3.0, atol=SOFTMAX_TOLERANCE)


def test_softmax_handles_extreme_spread_without_overflow():
    q = softmax(np.array([0.0, 5000.0]))
    assert q[1] == 1.0
    assert q[0] == 0.0


def test_softmax_shift_invariance():
    logits = np.array([0.3, -1.2, 2.5])
    assert np.allclose(softmax(logits), softmax(logits + 37.0), atol=SOFTMAX_TOLERANCE)


def test_sample_posterior_shapes_and_support():
    xi = standard_normal_matrix(0, 16, 3, MC_BLOCK_ROWS)
    logits, q = sample_posterior(1.2, 3, 1, xi)
    assert q.shape == (16, 3)
    assert logits.shape == (16, 3)
    assert np.all(q > 0.0)
    assert np.allclose(q.sum(axis=-1), 1.0, atol=SOFTMAX_TOLERANCE)


def test_sample_posterior_is_uniform_at_zero_coupling():
    xi = standard_normal_matrix(0, 32, 4, MC_BLOCK_ROWS)
    _, q = sample_posterior(0.0, 4, 2, xi)
    assert np.all(q == 0.25)


def test_sample_posterior_true_signal_gets_the_loading():
    # the true coordinate's logit carries the extra alpha^2 drift term
    xi = np.zeros((1, 2))
    logits, _ = sample_posterior(1.5, 2, 0, xi)
    assert logits[0, 0] - logits[0, 1] == pytest.approx(2.25, abs=1e-15)


def test_quadrature_is_exact_at_zero():
    phi1, phi2 = binary_moments_quadrature(0.0)
    assert phi1 == 0.5
    assert phi2 == 0.25


@pytest.mark.parametrize("alpha_bar", sorted(QUAD_ORACLE))
def test_quadrature_matches_frozen_oracle(alpha_bar):
    phi1, phi2 = binary_moments_quadrature(alpha_bar)
    ref1, ref2 = QUAD_ORACLE[alpha_bar]
    assert phi1 == pytest.approx(ref1, abs=QUAD_TOLERANCE)
    assert phi2 == pytest.approx(ref2, abs=QUAD_TOLERANCE)


@pytest.mark.parametrize(
    "alpha_bar,budget",
    # convergence degrades slowly as the sigmoid kink drifts into the tail;
    # the solver only ever evaluates near sqrt(2)
    [(0.5, QUAD_TOLERANCE), (1.0, QUAD_TOLERANCE), (2.0, QUAD_TOLERANCE), (3.5, 1e-8)],
)
def test_quadrature_node_count_is_converged(alpha_bar, budget):
    coarse = binary_moments_quadrature(alpha_bar, n_nodes=200)
    fine = binary_moments_quadrature(alpha_bar, n_nodes=400)
    assert coarse[0] == pytest.approx(fine[0], abs=budget)
    assert coarse[1] == pytest.approx(fine[1], abs=budget)


def test_quadrature_argument_validation():
    with pytest.raises(ValueError, match="below minimum"):
        binary_moments_quadrature(1.0, n_nodes=MIN_QUAD_NODES - 1)
    for alpha_bar in (-0.5, 1e200):
        with pytest.raises(ValueError, match="adkyle.posterior"):
            binary_moments_quadrature(alpha_bar)


def test_sample_posterior_argument_validation():
    # 1e200 is finite but its square is not: the moments would be NaN
    xi = standard_normal_matrix(0, 16, 2, MC_BLOCK_ROWS)
    for alpha_bar in (-0.5, float("nan"), float("inf"), 1e200):
        with pytest.raises(ValueError, match="adkyle.posterior"):
            sample_posterior(alpha_bar, 2, 0, xi)


def test_monte_carlo_moments_agree_with_quadrature():
    xi = standard_normal_matrix(3, MOMENT_SAMPLES, 2, MC_BLOCK_ROWS)
    m1, qcq_diag, std_err_m1 = moments_from_noise(1.0, 0, xi)
    ref1, ref2 = QUAD_ORACLE[1.0]
    assert abs(m1[0] - ref1) <= 3.0 * std_err_m1[0]
    # the centered quadratic diagnostic estimates phi2 at I = 2
    assert qcq_diag == pytest.approx(ref2, abs=5e-3)


@pytest.mark.parametrize("I,true_index", [(2, 1), (3, 0), (4, 2), (8, 5)])
def test_posterior_covariance_matches_canonical_draws(I, true_index):
    # every entry of E[q | t] and E[C | t] within 3 SE of the means of q and diag(q) - q q^T
    # over draws; E[q_t] is 1 - E[1 - q_t] of true_belief_moments bit for bit, and C_tt is
    # its B to 4 ulp (the form recomputes it from d and s), and the means over t are the
    # unconditioned 1/I and kappa Q
    alpha_bar = 1.6
    eye = np.eye(I)
    belief, form = posterior_moments(alpha_bar, I, true_index)
    cov = form(eye, eye)
    xi = standard_normal_matrix(4, MOMENT_SAMPLES, I, MC_BLOCK_ROWS)
    _, q = sample_posterior(alpha_bar, I, true_index, xi)
    per_draw = q[:, :, None] * (np.eye(I) - q[:, None, :])
    for moment, draws in ((belief, q), (cov, per_draw)):
        se = draws.std(axis=0, ddof=1) / np.sqrt(MOMENT_SAMPLES)
        assert np.all(np.abs(moment - draws.mean(axis=0)) <= 3.0 * se)
    not_true, spread = true_belief_moments(alpha_bar, I)
    assert belief[true_index] == 1.0 - not_true
    assert abs(cov[true_index, true_index] - spread) <= 4.0 * np.spacing(spread)
    assert np.abs(cov.sum(axis=1)).max() <= 1e-15 and np.array_equal(cov, cov.T)
    dense = [(m, c(eye, eye)) for m, c in (posterior_moments(alpha_bar, I, t) for t in range(I))]
    means = [np.mean(m, axis=0) for m in zip(*dense)]
    unconditioned, form = posterior_moments(alpha_bar, I)
    for moment, mean in zip((unconditioned, form(eye, eye)), means):
        np.testing.assert_allclose(moment, mean, rtol=0, atol=1e-15)


@pytest.mark.parametrize("I", [2, 3, 16, 512])
def test_covariance_form_matches_the_dense_matrix(I):
    # a^T E[C | t] b from the form against the dense matrix on random (I, m) stacks, for
    # every truth up to I = 16, three at I = 512, and none; a column and a stack agree too
    rng = np.random.default_rng(I)
    a, b = rng.standard_normal((I, 5)), rng.standard_normal((I, 3))
    a_c, b_c = a - a.mean(axis=0), b - b.mean(axis=0)
    norms = np.outer(np.abs(a).sum(axis=0), np.abs(b).sum(axis=0))
    for alpha_bar in (0.3, 1.3, 3.0):
        for t in (None, *(range(I) if I <= 16 else (0, 1, I - 1))):
            dense = dense_posterior_covariance(alpha_bar, I, t)
            _, cov = posterior_moments(alpha_bar, I, t)
            form = cov(a, b)
            bound = 8.0 * np.finfo(float).eps * np.abs(dense).max() * norms
            assert form.shape == (5, 3) and np.all(np.abs(form - a_c.T @ dense @ b_c) <= bound)
            for got, want in ((cov(a[:, 0], b), form[0]), (cov(a[:, 1], b[:, 2]), form[1, 2])):
                assert np.shape(got) == np.shape(want)
                np.testing.assert_allclose(got, want, rtol=0, atol=bound.max())


def test_covariance_form_memory_is_linear_in_I():
    # E[C | t] at I = 16,384 would take 2 GiB; the moments and the form on (I, 41) stacks
    # stay within a few of those stacks (5.4 MB each)
    I = 16_384
    a, b = np.random.default_rng(0).standard_normal((2, I, 41))
    tracemalloc.start()
    try:
        _, cov = posterior_moments(1.3, I, 0)
        assert cov(a, b).shape == (41, 41)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


@pytest.mark.parametrize("alpha_bar", [0.0, 0.3, 1.6, 3.5])
@pytest.mark.parametrize("I,true_index", [(2, 1), (4, 0), (8, 5)])
def test_softmax_mean_at_the_canonical_logits_is_the_true_belief(alpha_bar, I, true_index):
    # at mu = alpha^2 e_t, plus any common shift, the lines are true_belief_moments': the truth
    # holds 1 - E[1 - q_t] and each rival E[1 - q_t] / (I - 1)
    not_true, _ = true_belief_moments(alpha_bar, I)
    expected = np.full(I, not_true / (I - 1))
    expected[true_index] = 1.0 - not_true
    for shift in (0.0, -3.7, 250.0):
        mu = np.full(I, shift)
        mu[true_index] += alpha_bar * alpha_bar
        np.testing.assert_allclose(softmax_mean(alpha_bar, mu[None])[0], expected, rtol=0,
                                   atol=QUAD_TOL)


GENERIC_LOGITS = [(1.6, [0.3, -1.2, 2.5, 0.0]), (0.7, [0.1, -0.4]),
                  (2.2, [4.0, 3.9, -2.0, 1.0, 0.0, -9.0])]


@pytest.mark.parametrize("alpha_bar,mu", GENERIC_LOGITS)
def test_softmax_mean_is_within_its_tolerance_of_a_finer_rule(alpha_bar, mu, monkeypatch):
    coarse = softmax_mean(alpha_bar, np.asarray(mu)[None])[0]
    for name, value in {"LOG_SIGMA_STEP": 0.05, "MAX_LOG_SIGMA_POINTS": 8000,
                        "NORMAL_STEP": 0.1, "NORMAL_RANGE": 10.0}.items():
        monkeypatch.setattr(adkyle.posterior, name, value)
    np.testing.assert_allclose(coarse, softmax_mean(alpha_bar, np.asarray(mu)[None])[0],
                               rtol=0, atol=QUAD_TOL)


# the six-signal case is left to the finer rule: its last entry (mean 1.3e-5, a long
# right tail) reads 3.6 SE off at 200k draws, where the finer rule agrees within 4e-16
@pytest.mark.parametrize("alpha_bar,mu", GENERIC_LOGITS[:2])
def test_softmax_mean_matches_draws_at_any_logits(alpha_bar, mu):
    # every entry within 3 SE of softmax(mu + alpha xi) over draws, and the entries sum to 1
    mu = np.asarray(mu)
    xi = standard_normal_matrix(6, MOMENT_SAMPLES, len(mu), MC_BLOCK_ROWS)
    q = softmax(mu + alpha_bar * xi)
    se = q.std(axis=0, ddof=1) / np.sqrt(MOMENT_SAMPLES)
    mean = softmax_mean(alpha_bar, mu[None])[0]
    assert np.all(np.abs(mean - q.mean(axis=0)) <= 3.0 * se)
    assert abs(mean.sum() - 1.0) <= QUAD_TOL


def test_softmax_mean_takes_far_apart_logits():
    # a signal 1e3 below the rest holds no mass, with no overflow or NaN on its line
    mean = softmax_mean(1.2, np.array([0.0, 1.0, -1000.0])[None])[0]
    assert mean[2] == 0.0 and abs(mean.sum() - 1.0) <= QUAD_TOL
    np.testing.assert_allclose(mean[:2], softmax_mean(1.2, np.array([0.0, 1.0])[None])[0],
                               atol=QUAD_TOL)
    for mu in (np.zeros(1)[None], np.zeros((0, 2))):
        with pytest.raises(ValueError, match="adkyle.posterior"):
            softmax_mean(1.0, mu)


# every GENERIC_LOGITS alpha_bar takes the r-line path; 0.3 is below its threshold (grid path)
@pytest.mark.parametrize("alpha_bar,mu", GENERIC_LOGITS + [(0.3, [0.2, -0.5, 1.0])])
def test_each_row_of_a_stack_is_its_own_call(alpha_bar, mu):
    # one window serves every row: a stack of the canonical rows at I = len(mu), each truth
    # and common shift, and the generic row gives each row's one-row result bit for bit
    I = len(mu)
    rows = [np.full(I, shift) + alpha_bar * alpha_bar * np.eye(I)[t]
            for t in range(I) for shift in (0.0, -3.7, 250.0)]
    stack = np.array(rows + [mu])
    for row, mean in zip(stack, softmax_mean(alpha_bar, stack)):
        assert np.array_equal(mean, softmax_mean(alpha_bar, row[None])[0])


def test_posterior_covariance_argument_validation():
    for true_index in (-1, 3):
        with pytest.raises(ValueError, match="adkyle.posterior: true_index"):
            posterior_moments(1.0, 3, true_index)
    with pytest.raises(ValueError, match="adkyle.posterior"):
        posterior_moments(-1.0, 3)


def test_moments_mass_conservation():
    xi = standard_normal_matrix(9, 20_000, 5, MC_BLOCK_ROWS)
    m1, _, std_err_m1 = moments_from_noise(0.8, 2, xi)
    assert m1.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(std_err_m1 > 0.0)


def test_moments_from_noise_matches_direct_computation():
    xi = standard_normal_matrix(4, 10_000, 2, MC_BLOCK_ROWS)
    m1, _, _ = moments_from_noise(1.0, 0, xi)
    _, q = sample_posterior(1.0, 2, 0, xi)
    assert np.array_equal(m1, q.mean(axis=0))


def test_moment_sample_floor_is_enforced():
    parse_config_text(f"mc.seed = 0\nmc.n_samples = {MIN_MOMENT_SAMPLES}")
    with pytest.raises(ValueError, match="adkyle.config: mc.n_samples"):
        parse_config_text(f"mc.seed = 0\nmc.n_samples = {MIN_MOMENT_SAMPLES - 1}")


@pytest.mark.parametrize("I,true_index", [(2, 0), (3, 2), (8, 5)])
def test_true_belief_is_the_softmax_entry_of_the_truth(I, true_index):
    xi = standard_normal_matrix(6, 10_000, I, MC_BLOCK_ROWS)
    for alpha_bar in (0.0, 0.7, 2.5):
        q = sample_posterior(alpha_bar, I, true_index, xi)[1][:, true_index]
        assert np.abs(true_belief(alpha_bar, np.roll(xi, -true_index, axis=1)) - q).max() <= 1e-15


def test_true_belief_argument_validation():
    xi = standard_normal_matrix(6, 100, 3, MC_BLOCK_ROWS)
    with pytest.raises(ValueError, match="true_belief: need an"):
        true_belief(1.0, xi[0])


def test_normal_matrix_fills_its_blocks_in_place():
    # one preallocated matrix, bit for bit the concatenation of the counter blocks
    n, dim, seed = 2 * MC_BLOCK_ROWS + 3, 3, 11
    reference = np.concatenate([
        block_generator(seed, block_id).standard_normal((m, dim))
        for block_id, m in enumerate((MC_BLOCK_ROWS, MC_BLOCK_ROWS, 3))
    ])
    xi = standard_normal_matrix(seed, n, dim, MC_BLOCK_ROWS)
    assert xi.shape == (n, dim)
    assert np.array_equal(xi.view(np.uint64), reference.view(np.uint64))


def test_stage_streams_never_share_draws():
    # every stage tag in _rng keys its own stream, within a seed and across
    # neighbouring seeds, and none of them is a raw seed's stream
    tags = {name: tag for name, tag in vars(_rng).items()
            if name.isupper() and isinstance(tag, tuple)}
    assert tags  # the scan found the module's stage tags
    tags["FLOW_STATISTIC"] = FLOW_STATISTIC  # the path oracles' stream
    keys = {}
    for seed in range(4):
        keys[f"raw/{seed}"] = seed
        for name, tag in tags.items():
            keys[f"{name}/{seed}"] = derive_seed(seed, *tag)
    first = {name: tuple(block_generator(key, 0).bit_generator.random_raw(4))
             for name, key in keys.items()}
    assert len(set(first.values())) == len(first)
