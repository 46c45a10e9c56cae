"""Ranking objective: exact AP, smoothed AP, gradients, batch loss."""

import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from s2r2 import (
    SmoothingConfig,
    batch_smooth_ap_loss,
    cosine_similarity_matrix,
    exact_ap,
    info_nce_loss,
    smooth_ap,
    smooth_ap_grad,
)
import s2r2.ranking as ranking
from s2r2.ranking import batch_sources, mean_exact_ap
from s2r2.selftest import central_diff, margin_scores, max_rel_err, random_posneg_mask

from oracles import (
    _sigmoid,
    brute_ap,
    fraction_ap,
    searchsorted_ap,
    searchsorted_mean_ap,
    smooth_ap_reference,
    table_batch_smooth_ap,
    table_smooth_ap_rows,
)


def count_blocks(monkeypatch):
    """The list that gets one entry per `_smooth_ap_rows` call, that is,
    per row block of the batch loss."""
    calls, kernel = [], ranking._smooth_ap_rows

    def spy(*args):
        calls.append(args[0].shape[0])
        return kernel(*args)

    monkeypatch.setattr(ranking, "_smooth_ap_rows", spy)
    return calls


def random_instance(rng, grid=True, m_max=64):
    m = int(rng.integers(4, m_max + 1))
    scores = margin_scores(rng, m) if grid else rng.normal(size=m)
    return scores, random_posneg_mask(rng, m)


class TestExactAp:
    def test_hand_case(self):
        # positives at ranks 1 and 3: (1/1 + 2/3) / 2 = 5/6
        assert exact_ap([0.9, 0.7, 0.5, 0.3], [True, False, True, False]) == pytest.approx(5 / 6, abs=1e-15)

    def test_all_ties_give_ap_one(self):
        # equal scores share the best rank in numerator and denominator
        assert exact_ap([0.5, 0.5, 0.5], [True, False, True]) == 1.0

    def test_bitwise_match_with_brute_force_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            scores, mask = random_instance(rng, grid=bool(rng.integers(2)))
            ours = exact_ap(scores, mask)
            oracle = brute_ap(scores, list(np.flatnonzero(mask)))
            assert ours == oracle  # same rationals, correctly rounded sum

    def test_close_to_exact_rational_value(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            scores, mask = random_instance(rng)
            exact_rational = fraction_ap(scores, list(np.flatnonzero(mask)))
            assert exact_ap(scores, mask) == pytest.approx(float(exact_rational), abs=1e-13)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            scores, mask = random_instance(rng)
            perm = rng.permutation(scores.shape[0])
            assert exact_ap(scores[perm], mask[perm]) == exact_ap(scores, mask)

    def test_shift_invariance(self):
        rng = np.random.default_rng(15)
        for shift in (-0.25, 0.5, 3.0):
            scores, mask = random_instance(rng)
            assert exact_ap(scores + shift, mask) == exact_ap(scores, mask)

    def test_bounds_and_perfect_separation_equivalence(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            scores, mask = random_instance(rng, grid=bool(rng.integers(2)))
            ap = exact_ap(scores, mask)
            assert 0.0 < ap <= 1.0
            separated = scores[mask].min() > scores[~mask].max()
            assert (ap == 1.0) == separated

    def test_tie_heavy_rows_match_brute_force_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            m = int(rng.integers(2, 40))
            scores = rng.integers(0, 3, size=m) / 2.0
            mask = random_posneg_mask(rng, m)
            assert exact_ap(scores, mask) == brute_ap(scores, list(np.flatnonzero(mask)))

    def test_requires_both_classes(self):
        with pytest.raises(ValueError):
            exact_ap([0.1, 0.2], [True, True])
        with pytest.raises(ValueError):
            exact_ap([0.1, 0.2], [False, False])

    def test_rejects_non_finite_scores(self):
        with pytest.raises(ValueError):
            exact_ap([0.1, np.nan, 0.3], [True, False, True])

    def test_rejects_mismatched_mask(self):
        with pytest.raises(ValueError):
            exact_ap([0.1, 0.2, 0.3], [True, False])

    @pytest.mark.parametrize("scores", [[[0.1, 0.2]], []], ids=["2-d", "empty"])
    def test_rejects_scores_not_a_non_empty_vector(self, scores):
        with pytest.raises(ValueError, match="scores must be a non-empty 1-d array"):
            exact_ap(scores, [True, False])


def symmetric_batch(rng, b, k, levels=None):
    """A ``b x k`` batch's symmetric similarity matrix with a unit
    diagonal and each view's source, for the oracles; ``levels`` rounds
    the entries to multiples of ``1 / levels``, so many scores tie."""
    groups = np.repeat(np.arange(b), k)
    n = groups.shape[0]
    sim = rng.uniform(-1.0, 1.0, size=(n, n))
    if levels is not None:
        sim = np.round(sim * levels) / levels
    sim = np.triu(sim, 1)
    sim += sim.T + np.eye(n)
    return sim, groups


def padded_positives(sim, labels):
    """``(scores, pos)`` as `_exact_ap_rows` takes them: each row with the
    query's own column at -inf, and its positives' scores padded with
    -inf to the widest label."""
    n = labels.shape[0]
    scores = np.array(sim, dtype=np.float64)
    np.fill_diagonal(scores, -np.inf)
    same = (labels[:, None] == labels[None, :]) & ~np.eye(n, dtype=bool)
    pos = np.full((n, same.sum(axis=1).max()), -np.inf)
    for q in range(n):
        cols = np.flatnonzero(same[q])
        pos[q, : cols.size] = scores[q, cols]
    return scores, pos


class TestMeanExactAp:
    """The count path of a multi-view batch, against independent oracles."""

    def test_matches_per_row_brute_force_oracle(self):
        # coarse scores make ties common; the query never joins its gallery
        rng = np.random.default_rng(17)
        for _ in range(20):
            b, k = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            sim, groups = symmetric_batch(rng, b, k, levels=4)
            n = groups.shape[0]
            aps = []
            for q in range(n):
                gallery = [j for j in range(n) if j != q]
                positives = [i for i, j in enumerate(gallery) if groups[j] == groups[q]]
                aps.append(brute_ap(sim[q, gallery], positives))
            assert mean_exact_ap(sim, k) == float(np.mean(aps))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            mean_exact_ap(np.eye(3), 2)

    @pytest.mark.parametrize("sim, views_each", [
        (np.ones(4), 2),
        (np.ones((4, 4, 1)), 2),
        (np.eye(4), np.array([2])),
    ], ids=["sim_1d", "sim_3d", "column_labels"])
    def test_rejects_sim_not_2d_or_labels_not_1d(self, sim, views_each):
        expected = ("integer K" if sim.ndim == 2
                    else re.escape(f"must be square, got shape {sim.shape}"))
        with pytest.raises(ValueError, match=expected):
            mean_exact_ap(sim, views_each)

    @pytest.mark.parametrize("case", ["ties", "eleven_sources", "multi_block"])
    def test_bitwise_match_with_searchsorted_reference(self, case):
        rng = np.random.default_rng(18)
        if case == "ties":
            k, (sim, groups) = 6, symmetric_batch(rng, 4, 6, levels=2)
        elif case == "eleven_sources":
            k, (sim, groups) = 4, symmetric_batch(rng, 11, 4, levels=39)
        else:
            k, (sim, groups) = 8, symmetric_batch(rng, 40, 8)
        assert mean_exact_ap(sim, k) == searchsorted_mean_ap(sim, groups)

    @pytest.mark.parametrize("rows", [1, 50, 130])
    def test_block_size_does_not_change_result(self, monkeypatch, rows):
        # mean_exact_ap runs every query at once, the loss pass in row blocks
        rng = np.random.default_rng(19)
        sim, groups = symmetric_batch(rng, 20, 10, levels=5)
        table = 9 * groups.shape[0]  # one row's (P, n) table
        monkeypatch.setattr(ranking, "_TABLE_ENTRIES", rows * table)
        blocks = count_blocks(monkeypatch)
        exact = batch_smooth_ap_loss(sim, 10, SmoothingConfig(tau=0.05)).exact_ap
        assert len(blocks) == math.ceil(200 / rows)
        assert float(np.mean(exact)) == mean_exact_ap(sim, 10) == searchsorted_mean_ap(sim, groups)

    def test_rejects_singleton_label(self):
        with pytest.raises(ValueError, match="positive"):
            mean_exact_ap(np.eye(3), 1)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="negative"):
            mean_exact_ap(np.zeros((4, 4)), 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_off_diagonal_score(self, bad):
        sim = np.zeros((4, 4))
        sim[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            mean_exact_ap(sim, 2)

    def test_diagonal_is_checked_never_scored(self):
        # every gallery score is 1.0, so a query's own entry just above it
        # would outrank the whole gallery if it were scored
        sim = np.ones((6, 6))
        expected = mean_exact_ap(sim, 2)
        np.fill_diagonal(sim, 1.0 + 5e-7)
        assert mean_exact_ap(sim, 2) == expected
        for bad in (np.nan, np.inf, 1.0 + 2e-6):
            sim[3, 3] = bad
            with pytest.raises(ValueError, match="finite|diagonal"):
                mean_exact_ap(sim, 2)


class TestExactApRows:
    """The sort kernel of `exact_ap` and `retrieval_map` on raw matrices,
    with padded positive tables."""

    @pytest.mark.parametrize("scores", ["distinct", "tie_heavy"])
    def test_padded_positive_tables_match_searchsorted(self, scores):
        # label values neither contiguous nor sorted, class sizes down to 2,
        # so the positive tables are padded by different widths
        rng = np.random.default_rng(22)
        labels = rng.permutation(np.repeat([7, 3, 100, 12, 5], [2, 2, 40, 97, 150]))
        n = labels.shape[0]
        if scores == "distinct":
            sim = rng.normal(size=(n, n))
        else:
            sim = rng.integers(0, 4, size=(n, n)) / 3.0
        aps = ranking._exact_ap_rows(*padded_positives(sim, labels))
        for q in range(n):
            gallery = np.arange(n) != q
            assert aps[q] == searchsorted_ap(sim[q, gallery], labels[gallery] == labels[q])

    def test_unbalanced_labels_match_searchsorted_reference(self):
        rng = np.random.default_rng(18)
        labels = rng.permutation(np.repeat(np.arange(4), [2, 3, 9, 30]))
        sim = rng.integers(0, 40, size=(44, 44)) / 39.0
        aps = ranking._exact_ap_rows(*padded_positives(sim, labels))
        assert float(np.mean(aps)) == searchsorted_mean_ap(sim, labels)

    def test_non_finite_diagonal_is_never_read(self):
        rng = np.random.default_rng(21)
        labels = np.array([0, 0, 1, 1, 2, 2])
        sim = rng.normal(size=(6, 6))
        expected = ranking._exact_ap_rows(*padded_positives(sim, labels))
        np.fill_diagonal(sim, [np.nan, np.inf, -np.inf, np.nan, 0.0, np.inf])
        assert np.array_equal(ranking._exact_ap_rows(*padded_positives(sim, labels)), expected)


class TestSmoothAp:
    def test_matches_independent_reference(self):
        rng = np.random.default_rng(18)
        for tau in (0.05, 0.5):
            cfg = SmoothingConfig(tau=tau)
            for _ in range(100):
                scores, mask = random_instance(rng, grid=False, m_max=24)
                ref = smooth_ap_reference(scores, mask, tau)
                assert smooth_ap(scores, mask, cfg) == pytest.approx(ref, abs=1e-12)

    def test_monotone_convergence_to_exact_ap(self):
        # margin delta >= 1e-2 => |smooth - exact| <= m^2 * sigmoid(-delta/tau),
        # vanishing as tau -> 0; checked per instance at three widths
        rng = np.random.default_rng(19)
        taus = (1e-2, 1e-4, 1e-6)
        for _ in range(1000):
            scores, mask = random_instance(rng)
            m = scores.shape[0]
            exact = exact_ap(scores, mask)
            errs = []
            for tau in taus:
                err = abs(smooth_ap(scores, mask, SmoothingConfig(tau=tau)) - exact)
                assert err <= m * m * _sigmoid(-1e-2 / tau) + 1e-10
                errs.append(err)
            assert errs[2] <= errs[1] + 1e-12 <= errs[0] + 2e-12
            assert errs[2] <= 1e-4

    def test_shift_invariance(self):
        rng = np.random.default_rng(20)
        cfg = SmoothingConfig(tau=0.05)
        for shift in (-1.0, 0.3):
            scores, mask = random_instance(rng, grid=False)
            assert smooth_ap(scores + shift, mask, cfg) == pytest.approx(
                smooth_ap(scores, mask, cfg), abs=1e-12
            )

    def test_bounds(self):
        rng = np.random.default_rng(21)
        cfg = SmoothingConfig(tau=0.1)
        for _ in range(200):
            scores, mask = random_instance(rng, grid=False)
            assert 0.0 < smooth_ap(scores, mask, cfg) <= 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SmoothingConfig(tau=0.0)
        with pytest.raises(ValueError):
            SmoothingConfig(tau=-1.0)
        for subnormal in (5e-324, 1e-308):
            with pytest.raises(ValueError, match="tau must be a normal float"):
                SmoothingConfig(tau=subnormal)
        assert SmoothingConfig(tau=sys.float_info.min).tau == sys.float_info.min


class TestSmoothApGrad:
    def test_matches_finite_differences(self):
        # score scale tracks tau so the sigmoids are not all saturated;
        # a flat objective has gradients below what central differences
        # can resolve and the comparison would measure only noise
        rng = np.random.default_rng(22)
        for _ in range(100):
            cfg = SmoothingConfig(tau=float(rng.choice([0.01, 0.05, 0.2])))
            m = int(rng.integers(4, 25))
            scores = rng.normal(size=m) * 10 * cfg.tau
            mask = random_posneg_mask(rng, m)
            analytic = smooth_ap_grad(scores, mask, cfg)
            numeric = central_diff(lambda s: smooth_ap(s, mask, cfg), scores.copy())
            assert max_rel_err(analytic, numeric) <= 1e-4

    def test_saturated_regime_gradient_is_tiny_but_finite(self):
        # far-apart scores: analytic gradient collapses toward zero and
        # stays below the finite-difference noise floor
        cfg = SmoothingConfig(tau=0.01)
        scores = np.array([0.9, 0.6, 0.3, 0.0])
        mask = np.array([True, False, True, False])
        analytic = smooth_ap_grad(scores, mask, cfg)
        numeric = central_diff(lambda s: smooth_ap(s, mask, cfg), scores.copy())
        assert np.all(np.isfinite(analytic))
        assert np.max(np.abs(analytic - numeric)) <= 1e-8

    def test_symmetry_at_ties(self):
        # with all scores equal, items of the same class are interchangeable
        grad = smooth_ap_grad([0.5] * 4, [True, True, False, False], SmoothingConfig(tau=0.1))
        assert np.all(np.isfinite(grad))
        assert grad[0] == pytest.approx(grad[1], abs=1e-15)
        assert grad[2] == pytest.approx(grad[3], abs=1e-15)
        # pushing positives up and negatives down: signs must oppose
        assert grad[0] > 0 > grad[2]


class TestBatchSources:
    def test_returns_the_number_of_sources(self):
        assert batch_sources(12, 4) == 3
        assert batch_sources(12, np.int64(4)) == 3

    def test_positives_are_the_other_views_of_the_source(self):
        for b in range(2, 13):
            for k in range(2, 13):
                n, view = b * k, np.arange(b * k)
                pos_idx = ranking.batch_positives(b, k)
                assert pos_idx.shape == (n, k - 1)
                for q in range(n):
                    expected = np.flatnonzero((view // k == q // k) & (view != q))
                    assert np.array_equal(pos_idx[q], expected)

    def test_every_batch_entry_rejects_a_bad_shape_alike(self):
        with pytest.raises(ValueError) as expected:
            batch_sources(6, 4)
        sim = np.eye(6)
        for call in (lambda: batch_smooth_ap_loss(sim, 4, SmoothingConfig()),
                     lambda: mean_exact_ap(sim, 4),
                     lambda: info_nce_loss(sim, 4)):
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == str(expected.value)

    def test_rejects_k_that_does_not_split_the_views(self):
        with pytest.raises(ValueError):
            batch_sources(4, 3)

    def test_rejects_single_source_and_single_view(self):
        with pytest.raises(ValueError, match="negative"):
            batch_sources(3, 3)
        with pytest.raises(ValueError, match="positive"):
            batch_sources(3, 1)

    def test_rejects_non_integer(self):
        for views_each in (2.0, np.float64(2.0), "2", np.array(2), None):
            with pytest.raises(ValueError):
                batch_sources(4, views_each)


class TestBatchLoss:
    def batch(self, rng, b=3, k=3, dim=8):
        vectors = rng.normal(size=(b * k, dim))
        groups = np.repeat(np.arange(b), k)
        return cosine_similarity_matrix(vectors), groups, vectors

    def test_identical_representations_hand_case(self):
        result = batch_smooth_ap_loss(np.ones((4, 4)), 2, SmoothingConfig(tau=0.01))
        # every query: 1 positive at sigma-rank 1 + 2*0.5 = 2 -> AP 0.5
        assert result.loss == pytest.approx(0.5, abs=1e-9)
        assert np.allclose(result.per_query_ap, 0.5, atol=1e-9)

    def test_perfect_separation_loss_vanishes(self):
        vectors = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        sim = cosine_similarity_matrix(vectors)
        result = batch_smooth_ap_loss(sim, 2, SmoothingConfig(tau=0.01))
        assert result.loss <= 1e-4

    def test_loss_complements_mean_ap(self):
        rng = np.random.default_rng(23)
        sim, _, _ = self.batch(rng)
        result = batch_smooth_ap_loss(sim, 3, SmoothingConfig(tau=0.05))
        assert result.loss == pytest.approx(1.0 - result.per_query_ap.mean(), abs=1e-12)
        assert 0.0 <= result.loss < 1.0

    def test_gradient_diagonal_is_zero(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            sim, _, _ = self.batch(rng)
            result = batch_smooth_ap_loss(sim, 3, SmoothingConfig(tau=0.05))
            assert np.all(np.diagonal(result.grad_wrt_similarities) == 0.0)

    def test_gradient_matches_finite_differences_on_entries(self):
        # symmetric pair perturbation: analytic sensitivity is g[i,j] + g[j,i]
        rng = np.random.default_rng(25)
        cfg = SmoothingConfig(tau=0.05)
        sim, _, _ = self.batch(rng, b=2, k=2, dim=5)
        grad = batch_smooth_ap_loss(sim, 2, cfg).grad_wrt_similarities
        eps = 1e-6
        n = sim.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                hi, lo = sim.copy(), sim.copy()
                hi[i, j] = hi[j, i] = sim[i, j] + eps
                lo[i, j] = lo[j, i] = sim[i, j] - eps
                numeric = (
                    batch_smooth_ap_loss(hi, 2, cfg).loss
                    - batch_smooth_ap_loss(lo, 2, cfg).loss
                ) / (2 * eps)
                analytic = grad[i, j] + grad[j, i]
                assert analytic == pytest.approx(numeric, abs=1e-7, rel=1e-4)

    @pytest.mark.parametrize("k", [3, 10], ids=["K3", "K10"])
    @pytest.mark.parametrize("seed", [26, 126])
    def test_per_query_ap_matches_single_query_oracle(self, seed, k):
        # every batch row against the single-query API; at K = 10 a query
        # has 9 positives, enough for numpy's pairwise summation to engage
        cfg = SmoothingConfig(tau=0.05)
        sim, groups, _ = self.batch(np.random.default_rng(seed), k=k)
        result = batch_smooth_ap_loss(sim, k, cfg)
        grad = result.grad_wrt_similarities
        n = groups.shape[0]
        assert np.all(np.diagonal(grad) == 0.0)
        for q in range(n):
            gallery = np.r_[0:q, q + 1 : n]
            positives = groups[gallery] == groups[q]
            ref = smooth_ap_reference(sim[q, gallery], positives, cfg.tau)
            assert result.per_query_ap[q] == pytest.approx(ref, abs=1e-12)
            expected = -smooth_ap_grad(sim[q, gallery], positives, cfg) / n
            np.testing.assert_allclose(grad[q, gallery], expected, rtol=0, atol=1e-12)

    def test_memory_is_bounded_by_the_block_tables(self):
        # at B=16, K=32 an unblocked (n, P, n) table alone would take 62 MiB;
        # the loss holds its scores copy, the gradient, its block table and
        # the slopes' temporary of the same size
        sim = symmetric_batch(np.random.default_rng(27), 16, 32)[0]
        n = sim.shape[0]
        tracemalloc.start()
        try:
            batch_smooth_ap_loss(sim, 32, SmoothingConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * (2 * n * n + 2 * ranking._TABLE_ENTRIES)

    def test_rejects_bad_similarity_matrices(self):
        cfg = SmoothingConfig()
        asym = np.eye(4)
        asym[0, 1] = 0.5
        with pytest.raises(ValueError):
            batch_smooth_ap_loss(asym, 2, cfg)
        bad_diag = np.ones((4, 4)) * 0.5
        with pytest.raises(ValueError):
            batch_smooth_ap_loss(bad_diag, 2, cfg)
        with pytest.raises(ValueError):
            batch_smooth_ap_loss(np.full((4, 4), np.nan), 2, cfg)
        with pytest.raises(ValueError):
            batch_smooth_ap_loss(np.eye(3), 2, cfg)


def one_pass_batch(rng, k, scores, b=4, dim=6):
    """A ``b x k`` batch's cosine matrix and each view's source, for the
    oracles; ``tie_heavy`` rounds the entries to multiples of 0.05, so
    many scores tie."""
    groups = np.repeat(np.arange(b), k)
    sim = cosine_similarity_matrix(rng.normal(size=(b * k, dim)))
    if scores == "tie_heavy":
        sim = np.round(sim / 0.05) * 0.05
        np.fill_diagonal(sim, 1.0)
    return sim, groups


class TestOnePass:
    """The batch loss's single pass against the sort kernel and the table oracle."""

    @pytest.mark.parametrize("scores", ["distinct", "tie_heavy"])
    @pytest.mark.parametrize("k", [2, 3, 8, 10])
    @pytest.mark.parametrize("seed", [60, 160])
    def test_exact_ap_is_bitwise_the_exact_kernel(self, seed, k, scores):
        sim, groups = one_pass_batch(np.random.default_rng(seed + k), k, scores)
        result = batch_smooth_ap_loss(sim, k, SmoothingConfig(tau=0.05))
        n = groups.shape[0]
        oracle_aps = []  # enumerated ranks in pure Python, no code shared with the kernel
        for q in range(n):
            gallery = np.r_[0:q, q + 1 : n]
            oracle_aps.append(brute_ap(sim[q, gallery],
                                       np.flatnonzero(groups[gallery] == groups[q])))
        assert np.array_equal(result.exact_ap, oracle_aps)
        assert mean_exact_ap(sim, k) == float(np.mean(oracle_aps))

    @pytest.mark.parametrize("scores", ["distinct", "tie_heavy"])
    @pytest.mark.parametrize("k", [2, 3, 8, 10])
    @pytest.mark.parametrize("seed", [70, 170])
    def test_matches_table_oracle(self, seed, k, scores):
        cfg = SmoothingConfig(tau=0.05)
        sim, groups = one_pass_batch(np.random.default_rng(seed + k), k, scores)
        result = batch_smooth_ap_loss(sim, k, cfg)
        ap, loss, grad = table_batch_smooth_ap(sim, groups, cfg.tau)
        assert result.loss == pytest.approx(loss, abs=1e-12)
        np.testing.assert_allclose(result.per_query_ap, ap, rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.grad_wrt_similarities, grad, rtol=0, atol=1e-12)

    def test_single_query_matches_table_oracle(self):
        cfg = SmoothingConfig(tau=0.05)
        rng = np.random.default_rng(80)
        for _ in range(20):
            scores, mask = random_instance(rng, grid=bool(rng.integers(2)))
            ap, grad = table_smooth_ap_rows(scores[None, :], mask[None, :], cfg.tau)
            assert smooth_ap(scores, mask, cfg) == pytest.approx(ap[0], abs=1e-12)
            np.testing.assert_allclose(smooth_ap_grad(scores, mask, cfg), grad[0],
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [4, 8])
    def test_blocks_that_split_groups_change_no_bit(self, monkeypatch, k):
        cfg = SmoothingConfig(tau=0.05)
        sim, _ = one_pass_batch(np.random.default_rng(90 + k), k, "tie_heavy", b=5)
        n = sim.shape[0]
        blocks = count_blocks(monkeypatch)
        whole = batch_smooth_ap_loss(sim, k, cfg)
        assert blocks == [n]
        entries = 3 * (k - 1) * n  # three query rows per block, the last one short
        assert k % 3 and n % 3
        monkeypatch.setattr(ranking, "_TABLE_ENTRIES", entries)
        blocks.clear()
        split = batch_smooth_ap_loss(sim, k, cfg)
        assert blocks == [3] * (n // 3) + [n % 3]
        assert split.loss == whole.loss
        for field in ("per_query_ap", "exact_ap", "grad_wrt_similarities"):
            assert np.array_equal(getattr(split, field), getattr(whole, field))

    def test_repeat_calls_never_skip_a_check(self):
        cfg = SmoothingConfig()
        sim = np.eye(6)
        for _ in range(2):
            assert batch_smooth_ap_loss(sim, 2, cfg).loss >= 0.0
        for bad in (1, 4, 6, 2.0, np.array([2])):
            with pytest.raises(ValueError):
                batch_smooth_ap_loss(sim, bad, cfg)
        asym = np.eye(6)
        asym[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            batch_smooth_ap_loss(asym, 2, cfg)
        with pytest.raises(ValueError, match="integer K"):
            batch_smooth_ap_loss(np.eye(5), 2, cfg)

    @pytest.mark.parametrize("entry", [(0, 1), (1, 0)])
    def test_symmetry_tolerance_edge(self, entry):
        # SIM_TOLERANCE is 1e-6, whichever of the pair is the larger
        cfg = SmoothingConfig()
        sim = np.eye(6)
        sim[0, 1] = sim[1, 0] = 0.3
        sim[entry] += 5e-7
        before = sim.copy()
        assert batch_smooth_ap_loss(sim, 2, cfg).loss >= 0.0
        assert np.array_equal(sim, before)  # the check writes to its own buffer
        sim[entry] += 1.5e-6
        with pytest.raises(ValueError, match="symmetric"):
            batch_smooth_ap_loss(sim, 2, cfg)
