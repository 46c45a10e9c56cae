"""Cosine similarity forward/backward and its composition with the loss."""

import numpy as np
import pytest

from s2r2 import (
    DegenerateInputError,
    EncoderConfig,
    SmoothingConfig,
    backprop_similarity,
    batch_smooth_ap_loss,
    cosine_similarity_matrix,
    forward,
    init_params,
    normalize,
)
from s2r2.selftest import central_diff, max_rel_err


class TestNormalize:
    def test_rows_have_unit_norm(self):
        rng = np.random.default_rng(31)
        v = rng.normal(size=(12, 7)) * 5
        unit = normalize(v)
        assert np.allclose(np.linalg.norm(unit, axis=1), 1.0, atol=1e-12)

    def test_single_vector(self):
        unit = normalize([3.0, 4.0])
        assert np.allclose(unit, [0.6, 0.8], atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            normalize(np.zeros((2, 4)))

    def test_non_finite_rejected(self):
        with pytest.raises(DegenerateInputError):
            normalize(np.array([[1.0, np.inf]]))

    def test_three_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match=r"\(rows, dim\) matrix, got shape \(2, 2, 2\)"):
            normalize(np.ones((2, 2, 2)))


class TestCosineSimilarityMatrix:
    def test_diagonal_is_exactly_one(self):
        rng = np.random.default_rng(32)
        sim = cosine_similarity_matrix(rng.normal(size=(9, 5)))
        assert np.all(np.diagonal(sim) == 1.0)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(33)
        sim = cosine_similarity_matrix(rng.normal(size=(20, 3)))
        assert np.array_equal(sim, sim.T)
        assert np.all(sim >= -1.0) and np.all(sim <= 1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(34)
        v = rng.normal(size=(8, 6))
        base = cosine_similarity_matrix(v)
        for c in (2.0, 0.5, 64.0):  # powers of two scale exactly in binary fp
            assert np.array_equal(cosine_similarity_matrix(c * v), base)
        assert np.allclose(cosine_similarity_matrix(3.7 * v), base, atol=1e-12)

    def test_known_angles(self):
        v = np.array([[1.0, 0.0], [0.0, 2.0], [-3.0, 0.0], [1.0, 1.0]])
        sim = cosine_similarity_matrix(v)
        assert sim[0, 1] == pytest.approx(0.0, abs=1e-15)
        assert sim[0, 2] == pytest.approx(-1.0, abs=1e-15)
        assert sim[0, 3] == pytest.approx(np.sqrt(0.5), abs=1e-15)


class TestBackpropSimilarity:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            n, d = int(rng.integers(3, 8)), int(rng.integers(2, 6))
            v = rng.normal(size=(n, d))
            coeff = rng.normal(size=(n, n))

            def loss(x):
                return float(np.sum(coeff * cosine_similarity_matrix(x)))

            analytic = backprop_similarity(v, coeff)
            numeric = central_diff(loss, v.copy())
            assert max_rel_err(analytic, numeric) <= 1e-4

    def test_gradient_orthogonal_to_unit_vectors(self):
        # normalization projects out the radial direction, so each row of
        # the vector gradient is orthogonal to its unit vector
        rng = np.random.default_rng(36)
        v = rng.normal(size=(10, 4)) * 3
        grad = backprop_similarity(v, rng.normal(size=(10, 10)))
        unit = normalize(v)
        radial = np.abs(np.sum(grad * unit, axis=1))
        assert np.all(radial <= 1e-10)

    def test_rejects_grad_sim_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match=r"grad_sim shape \(3, 2\) does not match 3 vectors"):
            backprop_similarity(np.eye(3), np.zeros((3, 2)))

    def test_zero_upstream_gives_zero_gradient(self):
        rng = np.random.default_rng(37)
        v = rng.normal(size=(5, 3))
        assert np.array_equal(backprop_similarity(v, np.zeros((5, 5))), np.zeros((5, 3)))


class TestLossComposition:
    def test_end_to_end_gradient_through_tiny_network(self):
        # batch loss o cosine o encoder forward, differentiated to the inputs
        rng = np.random.default_rng(38)
        cfg = EncoderConfig(hidden_dims=(6,), rep_dim=5, proj_hidden_dim=4, proj_out_dim=3)
        params = init_params(cfg, 4, 1, dtype=np.float64)
        smoothing = SmoothingConfig(tau=0.1)
        x = rng.normal(size=(4, params.input_dim))

        def loss_fn(inp):
            _, proj, _ = forward(params, inp)
            sim = cosine_similarity_matrix(proj)
            return batch_smooth_ap_loss(sim, 2, smoothing).loss

        _, proj, _ = forward(params, x)
        result = batch_smooth_ap_loss(cosine_similarity_matrix(proj), 2, smoothing)
        grad_proj = backprop_similarity(proj, result.grad_wrt_similarities)
        # push through the linear layers by finite differences on the input
        numeric = central_diff(loss_fn, x.copy())
        # analytic input gradient via the chain rule on the network weights
        g = grad_proj
        flags = cfg.relu_flags()
        _, _, cache = forward(params, x)
        for li in range(len(params.weights) - 1, -1, -1):
            if flags[li]:
                g = g * (cache[li + 1] > 0)
            g = g @ params.weights[li].T
        assert max_rel_err(g, numeric) <= 1e-4
