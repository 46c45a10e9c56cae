"""Ranking objective: exact AP, smoothed AP, gradients, batch loss."""

import re

import numpy as np
import pytest

from s2r2 import (
    SmoothingConfig,
    batch_smooth_ap_loss,
    cosine_similarity_matrix,
    exact_ap,
    smooth_ap,
    smooth_ap_grad,
)
import s2r2.ranking as ranking
from s2r2.ranking import mean_exact_ap, validate_groups
from s2r2.selftest import central_diff, margin_scores, max_rel_err, random_posneg_mask

from oracles import (
    _sigmoid,
    brute_ap,
    fraction_ap,
    searchsorted_mean_ap,
    smooth_ap_reference,
    table_batch_smooth_ap,
    table_smooth_ap_rows,
)


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


class TestMeanExactAp:
    def test_matches_per_row_brute_force_oracle(self):
        # coarse scores make ties common; the query never joins its gallery
        rng = np.random.default_rng(17)
        for _ in range(20):
            classes, per_class = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            labels = rng.permutation(np.repeat(np.arange(classes), per_class))
            n = labels.shape[0]
            sim = rng.integers(0, 5, size=(n, n)) / 4.0
            aps = []
            for q in range(n):
                gallery = [j for j in range(n) if j != q]
                positives = [k for k, j in enumerate(gallery) if labels[j] == labels[q]]
                aps.append(brute_ap(sim[q, gallery], positives))
            assert mean_exact_ap(sim, labels) == float(np.mean(aps))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            mean_exact_ap(np.eye(3), np.array([0, 0, 1, 1]))

    @pytest.mark.parametrize("sim, labels", [
        (np.ones(4), np.array([0, 0, 1, 1])),
        (np.ones((4, 4, 1)), np.array([0, 0, 1, 1])),
        (np.eye(4), np.array([[0], [0], [1], [1]])),
    ], ids=["sim_1d", "sim_3d", "column_labels"])
    def test_rejects_sim_not_2d_or_labels_not_1d(self, sim, labels):
        bad = sim if sim.ndim != 2 else labels
        with pytest.raises(ValueError, match=re.escape(f"got shape {bad.shape}")):
            mean_exact_ap(sim, labels)

    @pytest.mark.parametrize("case", ["ties", "unbalanced", "multi_block"])
    def test_bitwise_match_with_searchsorted_reference(self, case):
        rng = np.random.default_rng(18)
        if case == "ties":
            labels = np.repeat(np.arange(4), 6)
            sim = rng.integers(0, 3, size=(24, 24)) / 2.0
        elif case == "unbalanced":
            labels = rng.permutation(np.repeat(np.arange(4), [2, 3, 9, 30]))
            sim = rng.integers(0, 40, size=(44, 44)) / 39.0
        else:
            n = 900  # 129 rows per block with these labels: six full blocks and one of 126
            assert n > 3 * (ranking._BLOCK_ENTRIES // n)
            labels = rng.integers(0, 7, size=n)
            sim = rng.normal(size=(n, n))
        assert mean_exact_ap(sim, labels) == searchsorted_mean_ap(sim, labels)

    @pytest.mark.parametrize("entries", [1, 50, 130])
    def test_block_size_does_not_change_result(self, monkeypatch, entries):
        rng = np.random.default_rng(19)
        labels = rng.permutation(np.repeat(np.arange(3), [3, 5, 8]))
        sim = rng.integers(0, 6, size=(16, 16)) / 5.0
        whole = mean_exact_ap(sim, labels)
        monkeypatch.setattr(ranking, "_BLOCK_ENTRIES", entries)
        assert mean_exact_ap(sim, labels) == whole == searchsorted_mean_ap(sim, labels)

    @pytest.mark.parametrize("rows", [1, 50, 130])
    @pytest.mark.parametrize("scores", ["distinct", "tie_heavy"])
    def test_padded_positive_tables_match_searchsorted_reference(self, monkeypatch, rows,
                                                                 scores):
        # label values neither contiguous nor sorted, class sizes down to 2,
        # so the positive tables are padded by different widths
        rng = np.random.default_rng(22)
        labels = rng.permutation(np.repeat([7, 3, 100, 12, 5], [2, 2, 40, 97, 150]))
        n = labels.shape[0]
        if scores == "distinct":
            sim = rng.normal(size=(n, n))
        else:
            sim = rng.integers(0, 4, size=(n, n)) / 3.0
        monkeypatch.setattr(ranking, "_BLOCK_ENTRIES", rows * n)
        assert mean_exact_ap(sim, labels) == searchsorted_mean_ap(sim, labels)

    def test_rejects_singleton_label(self):
        with pytest.raises(ValueError, match="positive"):
            mean_exact_ap(np.zeros((5, 5)), np.array([0, 0, 1, 1, 2]))

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="negative"):
            mean_exact_ap(np.zeros((4, 4)), np.zeros(4, dtype=int))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_off_diagonal_score(self, bad):
        sim = np.zeros((4, 4))
        sim[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            mean_exact_ap(sim, np.array([0, 0, 1, 1]))

    def test_ignores_non_finite_diagonal(self):
        rng = np.random.default_rng(21)
        labels = np.array([0, 0, 1, 1, 2, 2])
        sim = rng.normal(size=(6, 6))
        expected = mean_exact_ap(sim, labels)
        np.fill_diagonal(sim, [np.nan, np.inf, -np.inf, np.nan, 0.0, np.inf])
        assert mean_exact_ap(sim, labels) == expected


class TestSmoothAp:
    def test_matches_independent_reference(self):
        rng = np.random.default_rng(18)
        for tau in (0.05, 0.5):
            for smooth_num in (True, False):
                cfg = SmoothingConfig(tau=tau, smooth_numerator=smooth_num)
                for _ in range(50):
                    scores, mask = random_instance(rng, grid=False, m_max=24)
                    ref = smooth_ap_reference(scores, mask, tau, smooth_num)
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


class TestSmoothApGrad:
    def test_matches_finite_differences(self):
        # score scale tracks tau so the sigmoids are not all saturated;
        # a flat objective has gradients below what central differences
        # can resolve and the comparison would measure only noise
        rng = np.random.default_rng(22)
        for k in range(100):
            cfg = SmoothingConfig(
                tau=float(rng.choice([0.01, 0.05, 0.2])),
                smooth_numerator=bool(k % 2),
            )
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


class TestValidateGroups:
    def test_accepts_contiguous_balanced_groups(self):
        assert validate_groups(np.repeat(np.arange(3), 4)) == (3, 4)

    def test_order_may_interleave(self):
        assert validate_groups(np.array([0, 1, 0, 1])) == (2, 2)

    def test_rejects_gapped_ids(self):
        with pytest.raises(ValueError):
            validate_groups(np.array([0, 0, 2, 2]))

    def test_rejects_unbalanced_groups(self):
        with pytest.raises(ValueError):
            validate_groups(np.array([0, 0, 0, 1]))

    def test_rejects_single_group_and_single_view(self):
        with pytest.raises(ValueError):
            validate_groups(np.array([0, 0, 0]))
        with pytest.raises(ValueError):
            validate_groups(np.array([0, 1, 2]))

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            validate_groups(np.array([0.0, 0.0, 1.0, 1.0]))


class TestBatchLoss:
    def batch(self, rng, b=3, k=3, dim=8):
        vectors = rng.normal(size=(b * k, dim))
        groups = np.repeat(np.arange(b), k)
        return cosine_similarity_matrix(vectors), groups, vectors

    def test_identical_representations_hand_case(self):
        groups = np.repeat(np.arange(2), 2)
        result = batch_smooth_ap_loss(np.ones((4, 4)), groups, SmoothingConfig(tau=0.01))
        # every query: 1 positive at sigma-rank 1 + 2*0.5 = 2 -> AP 0.5
        assert result.loss == pytest.approx(0.5, abs=1e-9)
        assert np.allclose(result.per_query_ap, 0.5, atol=1e-9)

    def test_perfect_separation_loss_vanishes(self):
        vectors = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        sim = cosine_similarity_matrix(vectors)
        groups = np.repeat(np.arange(2), 2)
        result = batch_smooth_ap_loss(sim, groups, SmoothingConfig(tau=0.01))
        assert result.loss <= 1e-4

    def test_loss_complements_mean_ap(self):
        rng = np.random.default_rng(23)
        sim, groups, _ = self.batch(rng)
        result = batch_smooth_ap_loss(sim, groups, SmoothingConfig(tau=0.05))
        assert result.loss == pytest.approx(1.0 - result.per_query_ap.mean(), abs=1e-12)
        assert 0.0 <= result.loss < 1.0

    def test_gradient_diagonal_is_zero(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            sim, groups, _ = self.batch(rng)
            result = batch_smooth_ap_loss(sim, groups, SmoothingConfig(tau=0.05))
            assert np.all(np.diagonal(result.grad_wrt_similarities) == 0.0)

    def test_gradient_matches_finite_differences_on_entries(self):
        # symmetric pair perturbation: analytic sensitivity is g[i,j] + g[j,i]
        rng = np.random.default_rng(25)
        cfg = SmoothingConfig(tau=0.05)
        sim, groups, _ = self.batch(rng, b=2, k=2, dim=5)
        grad = batch_smooth_ap_loss(sim, groups, cfg).grad_wrt_similarities
        eps = 1e-6
        n = sim.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                hi, lo = sim.copy(), sim.copy()
                hi[i, j] = hi[j, i] = sim[i, j] + eps
                lo[i, j] = lo[j, i] = sim[i, j] - eps
                numeric = (
                    batch_smooth_ap_loss(hi, groups, cfg).loss
                    - batch_smooth_ap_loss(lo, groups, cfg).loss
                ) / (2 * eps)
                analytic = grad[i, j] + grad[j, i]
                assert analytic == pytest.approx(numeric, abs=1e-7, rel=1e-4)

    @pytest.mark.parametrize("smooth_numerator", [True, False], ids=["smooth_num", "exact_num"])
    @pytest.mark.parametrize("k", [3, 10], ids=["K3", "K10"])
    @pytest.mark.parametrize("layout", ["blocks", "interleaved"])
    def test_per_query_ap_matches_single_query_oracle(self, layout, k, smooth_numerator):
        # every batch row against the single-query API; at K = 10 a query
        # has 9 positives, enough for numpy's pairwise summation to engage
        rng = np.random.default_rng(26)
        cfg = SmoothingConfig(tau=0.05, smooth_numerator=smooth_numerator)
        sim, groups, _ = self.batch(rng, k=k)
        if layout == "interleaved":
            groups = rng.permutation(groups)
        result = batch_smooth_ap_loss(sim, groups, cfg)
        grad = result.grad_wrt_similarities
        n = groups.shape[0]
        assert np.all(np.diagonal(grad) == 0.0)
        for q in range(n):
            gallery = np.r_[0:q, q + 1 : n]
            positives = groups[gallery] == groups[q]
            ref = smooth_ap_reference(sim[q, gallery], positives, cfg.tau, smooth_numerator)
            assert result.per_query_ap[q] == pytest.approx(ref, abs=1e-12)
            expected = -smooth_ap_grad(sim[q, gallery], positives, cfg) / n
            np.testing.assert_allclose(grad[q, gallery], expected, rtol=0, atol=1e-12)

    def test_rejects_bad_similarity_matrices(self):
        groups = np.repeat(np.arange(2), 2)
        cfg = SmoothingConfig()
        asym = np.eye(4)
        asym[0, 1] = 0.5
        with pytest.raises(ValueError):
            batch_smooth_ap_loss(asym, groups, cfg)
        bad_diag = np.ones((4, 4)) * 0.5
        with pytest.raises(ValueError):
            batch_smooth_ap_loss(bad_diag, groups, cfg)
        with pytest.raises(ValueError):
            batch_smooth_ap_loss(np.full((4, 4), np.nan), groups, cfg)
        with pytest.raises(ValueError):
            batch_smooth_ap_loss(np.eye(3), groups, cfg)


def one_pass_batch(rng, k, layout, scores, b=4, dim=6):
    """A ``b x k`` batch's cosine matrix and group array; ``tie_heavy``
    rounds the entries to multiples of 0.05, so many scores tie."""
    groups = np.repeat(np.arange(b), k)
    if layout == "interleaved":
        groups = rng.permutation(groups)
    sim = cosine_similarity_matrix(rng.normal(size=(b * k, dim)))
    if scores == "tie_heavy":
        sim = np.round(sim / 0.05) * 0.05
        np.fill_diagonal(sim, 1.0)
    return sim, groups


ONE_PASS_CASES = pytest.mark.parametrize("smooth_numerator", [True, False],
                                         ids=["smooth_num", "exact_num"])


class TestOnePass:
    """The batch loss's single pass against the exact kernel and the table oracle."""

    @ONE_PASS_CASES
    @pytest.mark.parametrize("scores", ["distinct", "tie_heavy"])
    @pytest.mark.parametrize("k", [2, 3, 8, 10])
    @pytest.mark.parametrize("layout", ["blocks", "interleaved"])
    def test_exact_ap_is_bitwise_the_exact_kernel(self, layout, k, scores, smooth_numerator):
        rng = np.random.default_rng(60 + k)
        sim, groups = one_pass_batch(rng, k, layout, scores)
        cfg = SmoothingConfig(tau=0.05, smooth_numerator=smooth_numerator)
        result = batch_smooth_ap_loss(sim, groups, cfg)
        n = groups.shape[0]
        for q in range(n):
            gallery = np.r_[0:q, q + 1 : n]
            assert result.exact_ap[q] == exact_ap(sim[q, gallery], groups[gallery] == groups[q])
        assert float(np.mean(result.exact_ap)) == mean_exact_ap(sim, groups)

    @ONE_PASS_CASES
    @pytest.mark.parametrize("scores", ["distinct", "tie_heavy"])
    @pytest.mark.parametrize("k", [2, 3, 8, 10])
    @pytest.mark.parametrize("layout", ["blocks", "interleaved"])
    def test_matches_table_oracle(self, layout, k, scores, smooth_numerator):
        rng = np.random.default_rng(70 + k)
        sim, groups = one_pass_batch(rng, k, layout, scores)
        cfg = SmoothingConfig(tau=0.05, smooth_numerator=smooth_numerator)
        result = batch_smooth_ap_loss(sim, groups, cfg)
        ap, loss, grad = table_batch_smooth_ap(sim, groups, cfg.tau, smooth_numerator)
        assert result.loss == pytest.approx(loss, abs=1e-12)
        np.testing.assert_allclose(result.per_query_ap, ap, rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.grad_wrt_similarities, grad, rtol=0, atol=1e-12)

    @ONE_PASS_CASES
    def test_single_query_matches_table_oracle(self, smooth_numerator):
        rng = np.random.default_rng(80)
        cfg = SmoothingConfig(tau=0.05, smooth_numerator=smooth_numerator)
        for _ in range(20):
            scores, mask = random_instance(rng, grid=bool(rng.integers(2)))
            ap, grad = table_smooth_ap_rows(scores[None, :], mask[None, :], cfg.tau,
                                            smooth_numerator)
            assert smooth_ap(scores, mask, cfg) == pytest.approx(ap[0], abs=1e-12)
            np.testing.assert_allclose(smooth_ap_grad(scores, mask, cfg), grad[0],
                                       rtol=0, atol=1e-12)

    @ONE_PASS_CASES
    @pytest.mark.parametrize("k", [4, 8])
    def test_blocks_that_split_groups_change_no_bit(self, monkeypatch, k, smooth_numerator):
        rng = np.random.default_rng(90 + k)
        sim, groups = one_pass_batch(rng, k, "blocks", "tie_heavy", b=5)
        cfg = SmoothingConfig(tau=0.05, smooth_numerator=smooth_numerator)
        whole = batch_smooth_ap_loss(sim, groups, cfg)
        n = groups.shape[0]
        entries = 3 * (k - 1) * n  # three query rows per block, the last one short
        assert ranking._batch_layout(groups, ranking._TABLE_ENTRIES)[0] >= n
        assert ranking._batch_layout(groups, entries)[0] == 3 and k % 3 and n % 3
        monkeypatch.setattr(ranking, "_TABLE_ENTRIES", entries)
        split = batch_smooth_ap_loss(sim, groups, cfg)
        assert split.loss == whole.loss
        for field in ("per_query_ap", "exact_ap", "grad_wrt_similarities"):
            assert np.array_equal(getattr(split, field), getattr(whole, field))

    def test_cached_layout_never_skips_a_check(self):
        cfg = SmoothingConfig()
        groups = np.repeat(np.arange(3), 2)
        sim = np.eye(6)
        for _ in range(2):  # the second call finds the layout cached
            assert batch_smooth_ap_loss(sim, groups, cfg).loss >= 0.0
        for bad in (np.array([0, 0, 1, 1, 1, 2]), groups.view(np.float64),
                    groups.reshape(2, 3)):
            with pytest.raises(ValueError):
                batch_smooth_ap_loss(sim, bad, cfg)
        asym = np.eye(6)
        asym[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            batch_smooth_ap_loss(asym, groups, cfg)
        with pytest.raises(ValueError, match="does not match"):
            batch_smooth_ap_loss(np.eye(5), groups, cfg)

    @pytest.mark.parametrize("entry", [(0, 1), (1, 0)])
    def test_symmetry_tolerance_edge(self, entry):
        # SIM_TOLERANCE is 1e-6, whichever of the pair is the larger
        cfg = SmoothingConfig()
        groups = np.repeat(np.arange(3), 2)
        sim = np.eye(6)
        sim[0, 1] = sim[1, 0] = 0.3
        sim[entry] += 5e-7
        before = sim.copy()
        assert batch_smooth_ap_loss(sim, groups, cfg).loss >= 0.0
        assert np.array_equal(sim, before)  # the check writes to its own buffer
        sim[entry] += 1.5e-6
        with pytest.raises(ValueError, match="symmetric"):
            batch_smooth_ap_loss(sim, groups, cfg)
