"""InfoNCE baseline: hand-computed values, gradient structure, finite differences."""

import math

import numpy as np
import pytest

from s2r2 import ContrastiveConfig, cosine_similarity_matrix, info_nce_loss

from oracles import central_diff, max_rel_err


def tiny_groups(b, k):
    return np.repeat(np.arange(b), k)


class TestConfig:
    def test_defaults(self):
        cfg = ContrastiveConfig()
        assert cfg.temperature == 0.5
        assert cfg.pairing == "adjacent_pairs"

    def test_validation(self):
        with pytest.raises(ValueError):
            ContrastiveConfig(temperature=0.0)
        with pytest.raises(ValueError):
            ContrastiveConfig(temperature=-1.0)
        with pytest.raises(ValueError):
            ContrastiveConfig(pairing="all_pairs")


class TestLossValues:
    def test_all_equal_similarities_give_log_of_gallery_size(self):
        # Equal logits: softmax over the n-1 off-diagonal entries is uniform,
        # so every view's loss is log(n-1).
        for b, k in ((2, 2), (3, 2), (2, 4)):
            n = b * k
            sims = np.ones((n, n))
            res = info_nce_loss(sims, tiny_groups(b, k), ContrastiveConfig())
            assert np.allclose(res.per_view_loss, math.log(n - 1), atol=1e-12)
            assert abs(res.loss - math.log(n - 1)) < 1e-12

    def test_two_pair_hand_case_is_ln3(self):
        sims = np.ones((4, 4))
        res = info_nce_loss(sims, tiny_groups(2, 2), ContrastiveConfig(temperature=1.0))
        assert abs(res.loss - math.log(3.0)) < 1e-12

    def test_loss_is_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            b = int(rng.integers(2, 5))
            k = 2 * int(rng.integers(1, 4))
            vecs = rng.normal(size=(b * k, 8))
            sims = cosine_similarity_matrix(vecs)
            res = info_nce_loss(sims, tiny_groups(b, k), ContrastiveConfig())
            assert res.loss >= 0.0

    def test_separated_batch_beats_collapsed_batch(self):
        groups = tiny_groups(2, 2)
        collapsed = np.ones((4, 4))
        separated = np.full((4, 4), -1.0)
        separated[0, 1] = separated[1, 0] = 1.0
        separated[2, 3] = separated[3, 2] = 1.0
        np.fill_diagonal(separated, 1.0)
        cfg = ContrastiveConfig()
        assert (info_nce_loss(separated, groups, cfg).loss
                < info_nce_loss(collapsed, groups, cfg).loss)


class TestGradient:
    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            b, k = 3, 4
            sims = cosine_similarity_matrix(rng.normal(size=(b * k, 6)))
            res = info_nce_loss(sims, tiny_groups(b, k), ContrastiveConfig())
            # softmax minus the one-hot positive: each anchor row cancels.
            assert np.all(np.abs(res.grad_wrt_similarities.sum(axis=1)) < 1e-10)

    def test_diagonal_is_zero(self):
        rng = np.random.default_rng(2)
        sims = cosine_similarity_matrix(rng.normal(size=(8, 5)))
        res = info_nce_loss(sims, tiny_groups(4, 2), ContrastiveConfig())
        assert np.array_equal(np.diag(res.grad_wrt_similarities), np.zeros(8))

    def test_matches_finite_differences_through_vectors(self):
        rng = np.random.default_rng(3)
        cfg = ContrastiveConfig()
        for _ in range(10):
            b, k = 2, 4
            groups = tiny_groups(b, k)
            vecs = rng.normal(size=(b * k, 5))

            def loss_of(v):
                sims = cosine_similarity_matrix(v)
                return info_nce_loss(sims, groups, cfg).loss

            sims = cosine_similarity_matrix(vecs)
            res = info_nce_loss(sims, groups, cfg)
            from s2r2 import backprop_similarity
            analytic = backprop_similarity(vecs, res.grad_wrt_similarities)
            numeric = central_diff(loss_of, vecs, eps=1e-6)
            assert max_rel_err(analytic, numeric) < 1e-4


class TestValidation:
    def test_odd_views_per_group_rejected(self):
        sims = np.ones((6, 6))
        with pytest.raises(ValueError):
            info_nce_loss(sims, tiny_groups(2, 3), ContrastiveConfig())

    def test_interleaved_groups_rejected(self):
        # [0, 1, 0, 1] is a valid grouping, but adjacent rows belong to
        # different sources and would be paired as positives
        with pytest.raises(ValueError, match="consecutive"):
            info_nce_loss(np.eye(4), np.array([0, 1, 0, 1]), ContrastiveConfig())

    def test_blocks_need_not_follow_id_order(self):
        res = info_nce_loss(np.ones((4, 4)), np.array([1, 1, 0, 0]), ContrastiveConfig())
        assert res.loss == pytest.approx(math.log(3.0), abs=1e-12)

    def test_group_and_matrix_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            info_nce_loss(np.ones((4, 4)), tiny_groups(3, 2), ContrastiveConfig())

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            info_nce_loss(np.ones((4, 3)), tiny_groups(2, 2), ContrastiveConfig())
