"""Linear probe and retrieval metrics over frozen features."""

import re
import tracemalloc

import numpy as np
import pytest

from s2r2 import (
    EncoderConfig,
    ProbeConfig,
    SyntheticSpec,
    cosine_similarity_matrix,
    extract_features,
    forward,
    generate_synthetic,
    info_nce_loss,
    init_params,
    retrieval_map,
    split,
    train_linear_probe,
)
import s2r2.ranking as ranking
from s2r2.data import LabeledDataset

from oracles import naive_map, reference_probe_fit, searchsorted_mean_ap


def blob_features(rng, num_classes, per_class, dim, spread):
    """Gaussian blobs with orthogonal one-hot-block means."""
    centers = np.zeros((num_classes, dim))
    for c in range(num_classes):
        centers[c, c % dim] = 4.0
    labels = np.repeat(np.arange(num_classes), per_class)
    feats = centers[labels] + rng.normal(scale=spread, size=(labels.size, dim))
    return feats, labels


def with_entry(a, value):
    """Copy of ``a`` with one entry replaced by ``value``."""
    out = a.copy()
    out.flat[7] = value
    return out


class TestExtractFeatures:
    def test_zero_weight_encoder_gives_zero_features(self):
        cfg = EncoderConfig(hidden_dims=(8,), rep_dim=5, proj_hidden_dim=4, proj_out_dim=3)
        params = init_params(cfg, 6, 0)
        for w in params.weights:
            w[...] = 0.0
        ds = generate_synthetic(SyntheticSpec(num_classes=3, dim=6,
                                              samples_per_class=4), 0)
        feats = extract_features(params, ds)
        assert feats.shape == (12, 5)
        assert np.array_equal(feats, np.zeros((12, 5)))

    def test_deterministic(self):
        cfg = EncoderConfig(hidden_dims=(8,), rep_dim=5, proj_hidden_dim=4, proj_out_dim=3)
        params = init_params(cfg, 6, 1)
        ds = generate_synthetic(SyntheticSpec(num_classes=3, dim=6,
                                              samples_per_class=4), 0)
        assert np.array_equal(extract_features(params, ds),
                              extract_features(params, ds))

    def test_empty_dataset(self):
        cfg = EncoderConfig(hidden_dims=(), rep_dim=5, proj_hidden_dim=4, proj_out_dim=3)
        params = init_params(cfg, 6, 0)
        ds = LabeledDataset(samples=np.zeros((0, 6), dtype=np.float32),
                            labels=np.zeros(0, dtype=np.int64), num_classes=3)
        feats = extract_features(params, ds)
        assert feats.shape == (0, 5)

    @pytest.mark.parametrize("hidden_dims", [(), (128,)])
    def test_equals_forward_representations_bitwise(self, hidden_dims):
        rng = np.random.default_rng(4)
        params = init_params(EncoderConfig(hidden_dims=hidden_dims), 64, 2)
        for b in params.biases:  # nonzero biases, so the in-place add is exercised
            b[...] = rng.normal(size=b.shape)
        ds = generate_synthetic(SyntheticSpec(num_classes=4, dim=64,
                                              samples_per_class=50), 3)
        expected = forward(params, ds.flat_samples())[0].astype(np.float64)
        feats = extract_features(params, ds)
        assert feats.dtype == np.float64 and feats.shape == expected.shape
        assert feats.tobytes() == expected.tobytes()

    def test_peak_memory_under_half_of_forward(self):
        params = init_params(EncoderConfig(), 64, 0)
        ds = generate_synthetic(SyntheticSpec(num_classes=20, dim=64,
                                              samples_per_class=200), 0)
        flat = ds.flat_samples()
        assert flat.shape == (4000, 64)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: extract_features(params, ds)) < peak(lambda: forward(params, flat)) / 2

    def test_dimension_mismatch_rejected(self):
        cfg = EncoderConfig(hidden_dims=(), rep_dim=5, proj_hidden_dim=4, proj_out_dim=3)
        params = init_params(cfg, 7, 0)
        ds = generate_synthetic(SyntheticSpec(num_classes=3, dim=6,
                                              samples_per_class=4), 0)
        with pytest.raises(ValueError):
            extract_features(params, ds)


class TestLinearProbe:
    def test_separable_two_class_problem_is_solved(self):
        rng = np.random.default_rng(0)
        feats, labels = blob_features(rng, 2, 50, 8, spread=0.05)
        perm = rng.permutation(labels.size)
        feats, labels = feats[perm], labels[perm]
        res = train_linear_probe(feats[:60], labels[:60], feats[60:], labels[60:], seed=0)
        assert res.top1_accuracy == 1.0

    def test_raw_synthetic_benchmark_probe(self):
        ds = generate_synthetic(SyntheticSpec(num_classes=10, dim=64,
                                              samples_per_class=50,
                                              cluster_spread=0.1), 0)
        train, test = split(ds, 0.8, seed=0)
        res = train_linear_probe(train.flat_samples(), train.labels,
                                 test.flat_samples(), test.labels, seed=0)
        assert res.top1_accuracy >= 0.99

    def test_shuffled_labels_give_chance_accuracy(self):
        rng = np.random.default_rng(1)
        feats, labels = blob_features(rng, 10, 100, 16, spread=0.1)
        shuffled = rng.permutation(labels)
        res = train_linear_probe(feats[:800], shuffled[:800],
                                 feats[800:], shuffled[800:], seed=0)
        assert abs(res.top1_accuracy - 0.1) <= 0.05

    def test_standardization_makes_feature_scaling_immaterial(self):
        # Rescaling one coordinate by 1000x barely moves accuracy because
        # the probe standardizes with train statistics.
        rng = np.random.default_rng(2)
        feats, labels = blob_features(rng, 4, 60, 8, spread=0.8)
        perm = rng.permutation(labels.size)
        feats, labels = feats[perm], labels[perm]
        scaled = feats.copy()
        scaled[:, 0] *= 1000.0
        base = train_linear_probe(feats[:180], labels[:180],
                                  feats[180:], labels[180:], seed=0)
        resc = train_linear_probe(scaled[:180], labels[:180],
                                  scaled[180:], labels[180:], seed=0)
        assert abs(base.top1_accuracy - resc.top1_accuracy) < 0.02

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        feats, labels = blob_features(rng, 3, 30, 6, spread=0.5)
        perm = rng.permutation(labels.size)
        feats, labels = feats[perm], labels[perm]
        a = train_linear_probe(feats[:60], labels[:60], feats[60:], labels[60:], seed=7)
        b = train_linear_probe(feats[:60], labels[:60], feats[60:], labels[60:], seed=7)
        assert a.top1_accuracy == b.top1_accuracy
        assert np.array_equal(a.weights, b.weights)
        c = train_linear_probe(feats[:60], labels[:60], feats[60:], labels[60:], seed=8)
        assert not np.array_equal(a.weights, c.weights)

    def test_out_of_range_test_labels_rejected(self):
        rng = np.random.default_rng(12)
        feats, labels = blob_features(rng, 2, 10, 4, spread=0.1)
        bad = labels.copy()
        bad[-1] = 9
        with pytest.raises(ValueError):
            train_linear_probe(feats, labels, feats, bad, seed=0)

    @pytest.mark.parametrize("edit", [
        lambda f, y, tf, ty: (f[:, :, None], y, tf, ty),
        lambda f, y, tf, ty: (f, y, tf[:, 0], ty),
        lambda f, y, tf, ty: (with_entry(f, np.nan), y, tf, ty),
        lambda f, y, tf, ty: (f, y, with_entry(tf, np.inf), ty),
        lambda f, y, tf, ty: (f, y, tf[:, :-1], ty),
        lambda f, y, tf, ty: (f, y[:, None], tf, ty),
        lambda f, y, tf, ty: (f, y, tf, ty.astype(np.float64)),
        lambda f, y, tf, ty: (f, y[:15], tf, ty),
        lambda f, y, tf, ty: (f, y, tf, ty[:-1]),
        lambda f, y, tf, ty: (f[:0], y[:0], tf, ty),
        lambda f, y, tf, ty: (f, y, tf[:0], ty[:0]),
    ], ids=["train_3d", "test_1d", "train_nan", "test_inf", "width_mismatch",
            "column_labels", "float_labels", "short_train_labels", "short_test_labels",
            "empty_train", "empty_test"])
    def test_malformed_inputs_rejected(self, edit):
        rng = np.random.default_rng(16)
        feats, labels = blob_features(rng, 2, 10, 4, spread=0.1)
        with pytest.raises(ValueError):
            train_linear_probe(*edit(feats, labels, feats, labels), seed=0)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint64, np.int32])
    def test_label_dtype_does_not_change_the_fit(self, dtype):
        rng = np.random.default_rng(17)
        feats, labels = blob_features(rng, 4, 15, 5, spread=1.5)
        test_feats, test_labels = feats[::3], labels[::3]
        ref = train_linear_probe(feats, labels, test_feats, test_labels, num_classes=6, seed=0)
        res = train_linear_probe(feats, labels.astype(dtype), test_feats,
                                 test_labels.astype(dtype), num_classes=6, seed=0)
        assert np.array_equal(res.weights, ref.weights)
        assert np.array_equal(res.bias, ref.bias)
        assert res.top1_accuracy == ref.top1_accuracy

    def test_single_class_training_set_rejected(self):
        feats = np.random.default_rng(4).normal(size=(10, 4))
        labels = np.zeros(10, dtype=np.int64)
        with pytest.raises(ValueError):
            train_linear_probe(feats, labels, feats, labels, seed=0)

    def test_result_predict_matches_reported_accuracy(self):
        rng = np.random.default_rng(6)
        feats, labels = blob_features(rng, 3, 30, 6, spread=0.6)
        perm = rng.permutation(labels.size)
        feats, labels = feats[perm], labels[perm]
        res = train_linear_probe(feats[:60], labels[:60], feats[60:], labels[60:], seed=0)
        pred = res.predict(feats[60:])
        assert np.mean(pred == labels[60:]) == res.top1_accuracy

    def test_fit_makes_no_float64_copy_of_the_standardized_features(self):
        # the float32 (n, dim) features and their transpose together weigh
        # one float64 copy, and x.std makes one more; a float64 standardized
        # temporary on top of these would exceed the bound
        rng = np.random.default_rng(16)
        n, dim, classes = 4000, 64, 10
        feats, labels = blob_features(rng, classes, n // classes, dim, spread=1.0)
        test_feats, test_labels = feats[::4], labels[::4]
        tracemalloc.start()
        try:
            train_linear_probe(feats, labels, test_feats, test_labels, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * dim * 8


class TestReferenceEquivalence:
    """The float32 class-major fit against the float64 row-major loop in `oracles`.

    The fit runs its epochs in single precision, so weights and bias
    agree with the oracle to float32 rounding, within 1e-5 of the
    largest weight (the worst case, lr 0.5 over 500 epochs, deviates by
    about 2.2e-6), and the predictions are identical.
    """

    @pytest.mark.parametrize("n, dim, present, num_classes, config, seed", [
        (4000, 64, 10, None, ProbeConfig(), 0),
        (6000, 64, 20, None, ProbeConfig(), 0),
        (60, 8, 2, None, ProbeConfig(), 0),
        (200, 8, 3, 6, ProbeConfig(), 0),
        (300, 16, 4, None, ProbeConfig(epochs=1), 0),
        (400, 16, 4, None, ProbeConfig(epochs=500, learning_rate=0.5), 3),
    ], ids=["4000x64_c10", "6000x64_c20", "60x8_c2", "absent_classes", "one_epoch",
            "lr0.5_500_epochs"])
    def test_matches_row_major_reference(self, n, dim, present, num_classes, config, seed):
        rng = np.random.default_rng(n + dim + present)
        labels = rng.integers(0, present, size=n)
        feats = rng.normal(size=(present, dim))[labels] + rng.normal(scale=1.5, size=(n, dim))
        test_feats, test_labels = feats[: n // 4], labels[: n // 4]
        res = train_linear_probe(feats, labels, test_feats, test_labels, config, num_classes,
                                 seed=seed)

        w, b, mean, scale = reference_probe_fit(
            feats, labels, config.epochs, config.learning_rate, config.l2_penalty, seed,
            num_classes or present)
        assert res.weights.shape == w.shape
        bound = 1e-5 * np.max(np.abs(w))
        assert np.max(np.abs(res.weights - w)) <= bound
        assert np.max(np.abs(res.bias - b)) <= bound
        pred = np.argmax(((test_feats - mean) / scale) @ w + b, axis=1)
        assert np.array_equal(res.predict(test_feats), pred)
        assert res.top1_accuracy == np.mean(pred == test_labels)


class TestRetrievalMap:
    def test_orthogonal_classes_score_perfectly(self):
        # Identical vectors within a class, orthogonal across classes.
        feats = np.repeat(np.eye(5), 4, axis=0)
        labels = np.repeat(np.arange(5), 4)
        assert retrieval_map(feats, labels) == 1.0

    def test_random_features_score_near_class_prior(self):
        rng = np.random.default_rng(7)
        n, classes = 1000, 10
        feats = rng.normal(size=(n, 32))
        labels = np.repeat(np.arange(classes), n // classes)

        # Monte-Carlo oracle: mean average precision of uniformly random
        # rankings with the same gallery composition (999 items, 99 positive).
        mc_rng = np.random.default_rng(8)
        n_gallery, n_pos, trials = n - 1, n // classes - 1, 2000
        ap_sum = 0.0
        for _ in range(trials):
            pos_ranks = np.sort(mc_rng.choice(n_gallery, size=n_pos, replace=False)) + 1
            ap_sum += np.mean(np.arange(1, n_pos + 1) / pos_ranks)
        expected = ap_sum / trials

        assert abs(retrieval_map(feats, labels) - expected) <= 0.03

    def test_matches_naive_sorting_oracle(self):
        rng = np.random.default_rng(9)
        feats = rng.normal(size=(40, 12))
        labels = rng.integers(0, 4, size=40)
        while np.min(np.bincount(labels, minlength=4)) < 2:
            labels = rng.integers(0, 4, size=40)
        assert abs(retrieval_map(feats, labels) - naive_map(feats, labels)) < 1e-12

    def test_invariant_under_orthogonal_transforms(self):
        rng = np.random.default_rng(10)
        feats = rng.normal(size=(30, 8))
        labels = np.repeat(np.arange(5), 6)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        assert abs(retrieval_map(feats, labels)
                   - retrieval_map(feats @ q, labels)) <= 1e-10

    def test_singleton_class_rejected(self):
        feats = np.random.default_rng(11).normal(size=(5, 4))
        labels = np.array([0, 0, 1, 1, 2])
        with pytest.raises(ValueError):
            retrieval_map(feats, labels)

    def test_single_class_rejected(self):
        feats = np.random.default_rng(12).normal(size=(5, 4))
        with pytest.raises(ValueError, match="negative"):
            retrieval_map(feats, np.zeros(5, dtype=int))

    @pytest.mark.parametrize("edit", [
        lambda f, y: (f[:, 0], y),
        lambda f, y: (f[:, :, None], y),
        lambda f, y: (f, y[:, None]),
        lambda f, y: (f, np.stack([y, y])),
    ], ids=["features_1d", "features_3d", "column_labels", "labels_2d"])
    def test_features_not_2d_or_labels_not_1d_rejected(self, edit):
        # 1-d features once scored as a single vector, 1.0 on random data
        feats = np.random.default_rng(15).normal(size=(12, 4))
        feats, labels = edit(feats, np.repeat(np.arange(3), 4))
        bad = feats if feats.ndim != 2 else labels
        with pytest.raises(ValueError, match=re.escape(f"got shape {bad.shape}")):
            retrieval_map(feats, labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0], ids=["nan", "inf", "zero_row"])
    def test_non_finite_or_zero_feature_rows_rejected(self, bad):
        # the blocks are never checked: normalize refuses such rows first
        feats = np.random.default_rng(17).normal(size=(6, 4))
        feats[4] = bad
        with pytest.raises(ValueError, match="finite|norm"):
            retrieval_map(feats, np.repeat(np.arange(3), 2))

    def test_label_count_mismatch_rejected(self):
        feats = np.random.default_rng(13).normal(size=(6, 4))
        with pytest.raises(ValueError):
            retrieval_map(feats, np.array([0, 0, 1, 1]))

    def test_matches_mean_exact_ap_of_cosine_matrix_across_blocks(self):
        rng = np.random.default_rng(14)
        feats, labels = blob_features(rng, num_classes=8, per_class=125, dim=16, spread=2.0)
        assert labels.size > 3 * (ranking.BLOCK_ENTRIES // labels.size)
        dense = float(np.mean(info_nce_loss(cosine_similarity_matrix(feats), 125).exact_ap))
        assert abs(retrieval_map(feats, labels) - dense) <= 1e-12

    @pytest.mark.parametrize("rows", [1, 50, 130])
    def test_tie_heavy_padded_rows_match_searchsorted_reference(self, monkeypatch, rows):
        # four entries of +-1 per row: every norm is 2, so every cosine is
        # an exact multiple of 1/4 whatever the summation order, and ties
        # are everywhere; labels are sparse, unsorted and of unequal counts
        rng = np.random.default_rng(16)
        labels = rng.permutation(np.repeat([7, 3, 100, 12, 5], [2, 2, 40, 97, 150]))
        n, dim = labels.shape[0], 8
        feats = np.zeros((n, dim))
        for row in feats:
            row[rng.choice(dim, size=4, replace=False)] = rng.choice([-1.0, 1.0], size=4)
        sim = cosine_similarity_matrix(feats)
        monkeypatch.setattr(ranking, "BLOCK_ENTRIES", rows * n)
        assert retrieval_map(feats, labels) == searchsorted_mean_ap(sim, labels)

    def test_memory_stays_far_below_the_dense_matrix(self):
        rng = np.random.default_rng(15)
        n = 2000
        feats = rng.normal(size=(n, 16))
        labels = np.repeat(np.arange(10), n // 10)
        dense_bytes = n * n * 8  # 32 MB of float64
        tracemalloc.start()
        try:
            retrieval_map(feats, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 4

    def test_large_eval_split_takes_46_rows_a_block(self, monkeypatch):
        # 4000 test queries in 20 labels of 200, as a 20 x 500 dataset split
        # 0.6 / 0.4 gives them: n + 8 * 200 entries a row
        blocks, kernel = [], ranking._exact_ap_rows

        def spy(scores, pos):
            blocks.append(scores.shape[0])
            return kernel(scores, pos)

        monkeypatch.setattr(ranking, "_exact_ap_rows", spy)
        rng = np.random.default_rng(18)
        retrieval_map(rng.normal(size=(4000, 8)), np.repeat(np.arange(20), 200))
        assert blocks == [46] * 86 + [44]

    @pytest.mark.parametrize("classes", [100, 10, 2])
    def test_memory_holds_one_block_at_a_time(self, classes):
        # with few classes the (rows, P) positive tables are as wide as the
        # (rows, n) score block; the block budget counts them, so the peak
        # stays at one block's worth whatever the class count
        rng = np.random.default_rng(15)
        n, dim = 2000, 16
        feats = rng.normal(size=(n, dim))
        labels = np.repeat(np.arange(classes), n // classes)
        block_bytes = (ranking.BLOCK_ENTRIES // n) * n * 8
        unit_bytes = n * dim * 8
        tracemalloc.start()
        try:
            retrieval_map(feats, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * (block_bytes + unit_bytes)
