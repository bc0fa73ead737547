"""The posterior quadrature, its Monte Carlo and Gauss-Hermite oracles, and the seed streams."""

import numpy as np
import pytest

from adkyle import posterior_covariance, true_belief_moments
from adkyle import _rng
from adkyle._rng import BLOCK_SIZE, block_generator, derive_seed, standard_normal_matrix
from adkyle.config import MIN_MOMENT_SAMPLES, parse_config_text
from conftest import (MIN_QUAD_NODES, binary_moments_quadrature, moments_from_noise,
                      sample_posterior, softmax, true_belief)

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
    xi = standard_normal_matrix(0, 16, 3)
    logits, q = sample_posterior(1.2, 3, 1, xi)
    assert q.shape == (16, 3)
    assert logits.shape == (16, 3)
    assert np.all(q > 0.0)
    assert np.allclose(q.sum(axis=-1), 1.0, atol=SOFTMAX_TOLERANCE)


def test_sample_posterior_is_uniform_at_zero_coupling():
    xi = standard_normal_matrix(0, 32, 4)
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
    xi = standard_normal_matrix(0, 16, 2)
    for alpha_bar in (-0.5, float("nan"), float("inf"), 1e200):
        with pytest.raises(ValueError, match="adkyle.posterior"):
            sample_posterior(alpha_bar, 2, 0, xi)


def test_monte_carlo_moments_agree_with_quadrature():
    xi = standard_normal_matrix(3, MOMENT_SAMPLES, 2)
    m1, qcq_diag, std_err_m1 = moments_from_noise(1.0, 0, xi)
    ref1, ref2 = QUAD_ORACLE[1.0]
    assert abs(m1[0] - ref1) <= 3.0 * std_err_m1[0]
    # the centered quadratic diagnostic estimates phi2 at I = 2
    assert qcq_diag == pytest.approx(ref2, abs=5e-3)


@pytest.mark.parametrize("I,true_index", [(2, 1), (3, 0), (4, 2), (8, 5)])
def test_posterior_covariance_matches_canonical_draws(I, true_index):
    # every entry of E[C | t] within 3 SE of the mean of diag(q) - q q^T over draws;
    # C_tt is true_belief_moments' B bit for bit, and the mean over t is the
    # unconditioned kappa Q
    alpha_bar = 1.6
    cov = posterior_covariance(alpha_bar, I, true_index)
    xi = standard_normal_matrix(4, MOMENT_SAMPLES, I)
    _, q = sample_posterior(alpha_bar, I, true_index, xi)
    per_draw = q[:, :, None] * (np.eye(I) - q[:, None, :])
    se = per_draw.std(axis=0, ddof=1) / np.sqrt(MOMENT_SAMPLES)
    assert np.all(np.abs(cov - per_draw.mean(axis=0)) <= 3.0 * se)
    assert cov[true_index, true_index] == true_belief_moments(alpha_bar, I)[1]
    assert np.abs(cov.sum(axis=1)).max() <= 1e-15 and np.array_equal(cov, cov.T)
    mean = np.mean([posterior_covariance(alpha_bar, I, t) for t in range(I)], axis=0)
    np.testing.assert_allclose(posterior_covariance(alpha_bar, I), mean, rtol=0, atol=1e-15)


def test_posterior_covariance_argument_validation():
    for true_index in (-1, 3):
        with pytest.raises(ValueError, match="adkyle.posterior: true_index"):
            posterior_covariance(1.0, 3, true_index)
    with pytest.raises(ValueError, match="adkyle.posterior"):
        posterior_covariance(-1.0, 3)


def test_moments_mass_conservation():
    m1, _, std_err_m1 = moments_from_noise(0.8, 2, standard_normal_matrix(9, 20_000, 5))
    assert m1.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(std_err_m1 > 0.0)


def test_moments_from_noise_matches_direct_computation():
    xi = standard_normal_matrix(4, 10_000, 2)
    m1, _, _ = moments_from_noise(1.0, 0, xi)
    _, q = sample_posterior(1.0, 2, 0, xi)
    assert np.array_equal(m1, q.mean(axis=0))


def test_moment_sample_floor_is_enforced():
    parse_config_text(f"mc.seed = 0\nmc.n_samples = {MIN_MOMENT_SAMPLES}")
    with pytest.raises(ValueError, match="adkyle.config: mc.n_samples"):
        parse_config_text(f"mc.seed = 0\nmc.n_samples = {MIN_MOMENT_SAMPLES - 1}")


@pytest.mark.parametrize("I,true_index", [(2, 0), (3, 2), (8, 5)])
def test_true_belief_is_the_softmax_entry_of_the_truth(I, true_index):
    xi = standard_normal_matrix(6, 10_000, I)
    for alpha_bar in (0.0, 0.7, 2.5):
        q = sample_posterior(alpha_bar, I, true_index, xi)[1][:, true_index]
        assert np.abs(true_belief(alpha_bar, np.roll(xi, -true_index, axis=1)) - q).max() <= 1e-15


def test_true_belief_argument_validation():
    xi = standard_normal_matrix(6, 100, 3)
    with pytest.raises(ValueError, match="true_belief: need an"):
        true_belief(1.0, xi[0])


def test_normal_matrix_fills_its_blocks_in_place():
    # one preallocated matrix, bit for bit the concatenation of the counter blocks
    n, dim, seed = 2 * BLOCK_SIZE + 3, 3, 11
    reference = np.concatenate([
        block_generator(seed, block_id).standard_normal((m, dim))
        for block_id, m in enumerate((BLOCK_SIZE, BLOCK_SIZE, 3))
    ])
    xi = standard_normal_matrix(seed, n, dim)
    assert xi.shape == (n, dim)
    assert np.array_equal(xi.view(np.uint64), reference.view(np.uint64))


def test_stage_streams_never_share_draws():
    # every stage tag in _rng keys its own stream, within a seed and across
    # neighbouring seeds, and none of them is a raw seed's stream
    tags = {name: tag for name, tag in vars(_rng).items()
            if name.isupper() and isinstance(tag, tuple)}
    assert tags  # the scan found the module's stage tags
    keys = {}
    for seed in range(4):
        keys[f"raw/{seed}"] = seed
        for name, tag in tags.items():
            keys[f"{name}/{seed}"] = derive_seed(seed, *tag)
    first = {name: tuple(block_generator(key, 0).bit_generator.random_raw(4))
             for name, key in keys.items()}
    assert len(set(first.values())) == len(first)
