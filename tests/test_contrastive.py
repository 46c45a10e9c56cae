"""InfoNCE baseline: hand-computed values, a scalar oracle, gradient
structure, finite differences."""

import math

import numpy as np
import pytest

from s2r2 import ContrastiveConfig, backprop_similarity, cosine_similarity_matrix, info_nce_loss
from s2r2.selftest import central_diff, max_rel_err

from oracles import info_nce_reference


def random_sims(rng, b, k, dim=6):
    return cosine_similarity_matrix(rng.normal(size=(b * k, dim)))


class TestConfig:
    def test_defaults(self):
        cfg = ContrastiveConfig()
        assert cfg.temperature == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            ContrastiveConfig(temperature=0.0)
        with pytest.raises(ValueError):
            ContrastiveConfig(temperature=-1.0)


class TestLossValues:
    def test_all_equal_similarities_give_log_of_gallery_size(self):
        # Equal logits: softmax over the n-1 off-diagonal entries is uniform,
        # so every view's loss is log(n-1).
        for b, k in ((2, 2), (3, 2), (2, 4)):
            n = b * k
            sims = np.ones((n, n))
            res = info_nce_loss(sims, k, ContrastiveConfig())
            assert np.allclose(res.per_view_loss, math.log(n - 1), atol=1e-12)
            assert abs(res.loss - math.log(n - 1)) < 1e-12

    def test_two_pair_hand_case_is_ln3(self):
        sims = np.ones((4, 4))
        res = info_nce_loss(sims, 2, ContrastiveConfig(temperature=1.0))
        assert abs(res.loss - math.log(3.0)) < 1e-12

    def test_loss_is_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            b = int(rng.integers(2, 5))
            k = int(rng.integers(2, 7))
            vecs = rng.normal(size=(b * k, 8))
            sims = cosine_similarity_matrix(vecs)
            res = info_nce_loss(sims, k, ContrastiveConfig())
            assert res.loss >= 0.0

    def test_separated_batch_beats_collapsed_batch(self):
        collapsed = np.ones((4, 4))
        separated = np.full((4, 4), -1.0)
        separated[0, 1] = separated[1, 0] = 1.0
        separated[2, 3] = separated[3, 2] = 1.0
        np.fill_diagonal(separated, 1.0)
        cfg = ContrastiveConfig()
        assert (info_nce_loss(separated, 2, cfg).loss
                < info_nce_loss(collapsed, 2, cfg).loss)


class TestOracle:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_scalar_oracle(self, k):
        rng = np.random.default_rng(10 + k)
        for b, temperature in ((2, 0.5), (3, 0.1), (4, 1.0)):
            sims = random_sims(rng, b, k)
            res = info_nce_loss(sims, k, ContrastiveConfig(temperature=temperature))
            per_view, grad = info_nce_reference(sims, k, temperature)
            np.testing.assert_allclose(res.per_view_loss, per_view, rtol=1e-12, atol=1e-12)
            assert res.loss == pytest.approx(math.fsum(per_view) / len(per_view), abs=1e-12)
            np.testing.assert_allclose(res.grad_wrt_similarities, grad, rtol=0, atol=1e-12)

    def test_two_views_are_the_one_partner_formula_bit_for_bit(self):
        # at K = 2 a view's one positive is its adjacent view, and the mean
        # over one positive, like 1 / (K - 1), changes no bit
        rng = np.random.default_rng(5)
        for _ in range(100):
            b = int(rng.integers(2, 9))
            t = float(rng.choice([0.05, 0.5, 2.0]))
            sims = random_sims(rng, b, 2)
            n = 2 * b
            partners = np.arange(n) ^ 1
            logits = sims / t
            np.fill_diagonal(logits, -np.inf)
            top = logits.max(axis=1)
            lse = np.log(np.exp(logits - top[:, None]).sum(axis=1)) + top
            per_view = lse - logits[np.arange(n), partners]
            grad = np.exp(logits - lse[:, None])
            grad[np.arange(n), partners] -= 1.0
            grad /= t * n
            np.fill_diagonal(grad, 0.0)

            res = info_nce_loss(sims, 2, ContrastiveConfig(temperature=t))
            assert np.array_equal(res.per_view_loss, per_view)
            assert res.loss == float(np.mean(per_view))
            assert np.array_equal(res.grad_wrt_similarities, grad)


class TestGradient:
    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            for b, k in ((3, 4), (3, 3)):
                res = info_nce_loss(random_sims(rng, b, k), k, ContrastiveConfig())
                # softmax minus 1/(K-1) on each of the K-1 positives: each
                # anchor row cancels.
                assert np.all(np.abs(res.grad_wrt_similarities.sum(axis=1)) < 1e-10)

    def test_diagonal_is_zero(self):
        rng = np.random.default_rng(2)
        sims = cosine_similarity_matrix(rng.normal(size=(8, 5)))
        res = info_nce_loss(sims, 2, ContrastiveConfig())
        assert np.array_equal(np.diag(res.grad_wrt_similarities), np.zeros(8))

    def test_matches_finite_differences_through_vectors(self):
        rng = np.random.default_rng(3)
        cfg = ContrastiveConfig()
        for i in range(10):
            b, k = (2, 4) if i % 2 else (2, 3)
            vecs = rng.normal(size=(b * k, 5))

            def loss_of(v):
                sims = cosine_similarity_matrix(v)
                return info_nce_loss(sims, k, cfg).loss

            sims = cosine_similarity_matrix(vecs)
            res = info_nce_loss(sims, k, cfg)
            analytic = backprop_similarity(vecs, res.grad_wrt_similarities)
            numeric = central_diff(loss_of, vecs, eps=1e-6)
            assert max_rel_err(analytic, numeric) < 1e-4


class TestValidation:
    def test_odd_views_per_group_accepted(self):
        # two sources of three views: equal logits give log(5) per view
        res = info_nce_loss(np.ones((6, 6)), 3, ContrastiveConfig())
        assert np.allclose(res.per_view_loss, math.log(5.0), atol=1e-12)

    def test_group_and_matrix_shape_mismatch_rejected(self):
        for k in (3, 4, 6):  # splits 4 views unevenly, or into fewer than two sources
            with pytest.raises(ValueError):
                info_nce_loss(np.ones((4, 4)), k, ContrastiveConfig())

    def test_non_integer_views_each_rejected(self):
        with pytest.raises(ValueError, match="integer K"):
            info_nce_loss(np.ones((4, 4)), 2.0, ContrastiveConfig())

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            info_nce_loss(np.ones((4, 3)), 2, ContrastiveConfig())
