"""Multi-view batch construction and the stochastic view transforms."""

import copy
import tracemalloc

import numpy as np
import pytest

import s2r2.views as views
from s2r2 import (
    AugmentationPolicy,
    SyntheticSpec,
    augment_image,
    augment_vector,
    eval_view_dataset,
    generate_synthetic,
    sample_batch,
)
from s2r2.data import LabeledDataset
from s2r2.experiment import batch_seed_sequence

from oracles import reference_crop_size, reference_eval_frames, reference_image_view

IDENTITY_IMAGE_POLICY = dict(
    crop_area_min=1.0, crop_area_max=1.0,
    flip_prob=0.0,
    color_jitter_strength=0.0,
    grayscale_prob=0.0,
)


def vector_dataset(n=40, dim=6, seed=0):
    spec = SyntheticSpec(num_classes=4, dim=dim, samples_per_class=n // 4)
    return generate_synthetic(spec, seed)


def image_dataset(n=8, h=6, w=6, c=3, seed=1):
    rng = np.random.default_rng(seed)
    samples = rng.random(size=(n, h, w, c)).astype(np.float32)
    labels = np.arange(n) % 2
    return LabeledDataset(samples=samples, labels=labels, num_classes=2)


class TestSampleBatch:
    def test_group_structure(self):
        # with no noise, scale jitter or dropout every view equals its source,
        # so rows b*K .. b*K + K-1 show which source they came from
        ds = vector_dataset()
        policy = AugmentationPolicy(noise_std=0.0, scale_jitter=0.0,
                                    coordinate_dropout_prob=0.0)
        for b, k in ((2, 2), (4, 3), (5, 8)):
            batch = sample_batch(ds, b, k, policy, seed=3)
            sources = np.random.default_rng(3).choice(len(ds), b, replace=False)
            assert len(set(sources.tolist())) == b  # without replacement
            assert batch.shape == (b * k, ds.samples.shape[1])
            for i, source in enumerate(sources):
                assert (batch[i * k : (i + 1) * k] == ds.samples[source]).all()

    def test_image_group_structure(self):
        # the identity image policy keeps every view within round-off of its source
        ds = image_dataset()
        batch = sample_batch(ds, 4, 3, AugmentationPolicy(**IDENTITY_IMAGE_POLICY), seed=3)
        sources = np.random.default_rng(3).choice(len(ds), 4, replace=False)
        assert batch.shape == (12, 6, 6, 3)
        for i, source in enumerate(sources):
            assert np.allclose(batch[i * 3 : (i + 1) * 3], ds.samples[source], atol=1e-5)

    def test_views_of_one_source_are_pairwise_distinct(self):
        ds = vector_dataset()
        policy = AugmentationPolicy(noise_std=0.01, scale_jitter=0.0,
                                    coordinate_dropout_prob=0.0)
        group0 = sample_batch(ds, 2, 20, policy, seed=5)[:20]
        for i in range(20):
            for j in range(i + 1, 20):
                assert not np.array_equal(group0[i], group0[j])

    def test_no_label_leakage(self):
        # the batch is the bare (B*K, d) array of views, with nothing beside it
        ds = vector_dataset()
        batch = sample_batch(ds, 2, 2, AugmentationPolicy(), seed=0)
        assert type(batch) is np.ndarray and batch.shape == (4, 6)

    def test_deterministic_per_seed(self):
        ds = vector_dataset()
        a = sample_batch(ds, 3, 4, AugmentationPolicy(), seed=11)
        b = sample_batch(ds, 3, 4, AugmentationPolicy(), seed=11)
        assert np.array_equal(a, b)
        c = sample_batch(ds, 3, 4, AugmentationPolicy(), seed=12)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("make_ds", [vector_dataset, image_dataset])
    def test_reused_seed_sequence_reproduces_batch(self, make_ds):
        ds = make_ds()
        seed = batch_seed_sequence(0, 7)
        a = sample_batch(ds, 4, 3, AugmentationPolicy(), seed)
        b = sample_batch(ds, 4, 3, AugmentationPolicy(), seed)
        assert np.array_equal(a, b)

    def test_image_dataset_dispatch(self):
        ds = image_dataset()
        batch = sample_batch(ds, 2, 3, AugmentationPolicy(), seed=2)
        assert batch.shape == (6, 6, 6, 3)
        assert batch.dtype == np.float32
        assert batch.min() >= 0.0 and batch.max() <= 1.0

    def test_batch_shape_validation(self):
        ds = vector_dataset(n=8)
        with pytest.raises(ValueError):
            sample_batch(ds, 1, 4, AugmentationPolicy(), seed=0)
        with pytest.raises(ValueError):
            sample_batch(ds, 2, 1, AugmentationPolicy(), seed=0)
        with pytest.raises(ValueError):
            sample_batch(ds, 9, 2, AugmentationPolicy(), seed=0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AugmentationPolicy(noise_std=-0.1)
        with pytest.raises(ValueError):
            AugmentationPolicy(coordinate_dropout_prob=1.0)
        with pytest.raises(ValueError):
            AugmentationPolicy(crop_area_min=0.0, crop_area_max=1.0)
        with pytest.raises(ValueError):
            AugmentationPolicy(crop_area_min=0.9, crop_area_max=0.5)
        with pytest.raises(ValueError):
            AugmentationPolicy(flip_prob=1.5)


class TestAugmentVector:
    def test_degenerate_policy_is_identity(self):
        policy = AugmentationPolicy(noise_std=0.0, scale_jitter=0.0,
                                    coordinate_dropout_prob=0.0)
        x = np.array([1.0, -2.0, 3.5])
        out = augment_vector(x, policy, np.random.default_rng(0))
        assert np.array_equal(out, x)

    def test_batched_rows_get_one_scale_each(self):
        policy = AugmentationPolicy(noise_std=0.0, scale_jitter=0.5,
                                    coordinate_dropout_prob=0.0)
        x = np.random.default_rng(1).uniform(1.0, 2.0, size=(6, 5))
        out = augment_vector(x, policy, np.random.default_rng(0))
        assert out.shape == x.shape
        ratios = out / x
        assert np.allclose(ratios, ratios[:, :1], rtol=0, atol=1e-12)
        scales = ratios[:, 0]
        assert np.all((scales >= 0.5) & (scales <= 1.5))
        assert len(np.unique(scales)) == len(scales)

    def test_noise_statistics(self):
        policy = AugmentationPolicy(noise_std=0.5, scale_jitter=0.0,
                                    coordinate_dropout_prob=0.0)
        draws = np.stack([
            augment_vector(np.zeros(1000), policy, np.random.default_rng(s))
            for s in range(5)
        ])
        assert abs(draws.std() - 0.5) < 0.02

    def test_dropout_zeroes_coordinates(self):
        policy = AugmentationPolicy(noise_std=0.0, scale_jitter=0.0,
                                    coordinate_dropout_prob=0.5)
        out = augment_vector(np.ones(2000), policy, np.random.default_rng(3))
        zeros = np.count_nonzero(out == 0.0)
        assert 850 <= zeros <= 1150


class TestAugmentImage:
    def test_identity_policy_round_trips(self):
        img = np.random.default_rng(4).random((5, 5, 3)).astype(np.float32)
        policy = AugmentationPolicy(**IDENTITY_IMAGE_POLICY)
        out = augment_image(img, policy, np.random.default_rng(0))
        assert out.shape == img.shape
        assert np.allclose(out, img, atol=1e-5)

    def test_resize_to_output_size(self):
        img = np.random.default_rng(5).random((8, 6, 3)).astype(np.float32)
        policy = AugmentationPolicy(output_height=4, output_width=3, **IDENTITY_IMAGE_POLICY)
        out = augment_image(img, policy, np.random.default_rng(0))
        assert out.shape == (4, 3, 3)

    def test_resize_preserves_constant_images(self):
        img = np.full((7, 7, 3), 0.7, dtype=np.float32)
        policy = AugmentationPolicy(output_height=3, output_width=5, crop_area_min=0.5,
                                    flip_prob=0.5, color_jitter_strength=0.0,
                                    grayscale_prob=0.0)
        out = augment_image(img, policy, np.random.default_rng(1))
        assert np.allclose(out, 0.7, atol=1e-6)

    def test_forced_flip(self):
        img = np.random.default_rng(6).random((4, 4, 3)).astype(np.float32)
        policy = AugmentationPolicy(**{**IDENTITY_IMAGE_POLICY, "flip_prob": 1.0})
        out = augment_image(img, policy, np.random.default_rng(0))
        assert np.allclose(out, img[:, ::-1], atol=1e-5)

    def test_forced_grayscale_equalizes_channels(self):
        img = np.random.default_rng(7).random((4, 4, 3)).astype(np.float32)
        policy = AugmentationPolicy(**{**IDENTITY_IMAGE_POLICY, "grayscale_prob": 1.0})
        out = augment_image(img, policy, np.random.default_rng(0))
        assert np.allclose(out[..., 0], out[..., 1], atol=1e-6)
        assert np.allclose(out[..., 1], out[..., 2], atol=1e-6)

    def test_output_clamped_to_unit_interval(self):
        img = np.random.default_rng(8).random((6, 6, 3)).astype(np.float32)
        policy = AugmentationPolicy(color_jitter_strength=0.9)
        for s in range(5):
            out = augment_image(img, policy, np.random.default_rng(s))
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_rejects_non_image_input(self):
        with pytest.raises(ValueError):
            augment_image(np.ones((4, 4)), AugmentationPolicy(), np.random.default_rng(0))


class TestEvalViewDataset:
    def test_vector_dataset_passes_through(self):
        ds = vector_dataset()
        out = eval_view_dataset(ds, AugmentationPolicy(output_height=4, output_width=4))
        assert out is ds

    def test_no_output_size_passes_through(self):
        ds = image_dataset()
        out = eval_view_dataset(ds, AugmentationPolicy())
        assert out is ds

    def test_matching_geometry_passes_through(self):
        ds = image_dataset(h=6, w=6)
        out = eval_view_dataset(ds, AugmentationPolicy(output_height=6, output_width=6))
        assert out is ds

    def test_resizes_to_view_geometry(self):
        ds = image_dataset(n=5, h=12, w=10, c=3)
        out = eval_view_dataset(ds, AugmentationPolicy(output_height=6, output_width=5))
        assert out.samples.shape == (5, 6, 5, 3)
        assert out.samples.dtype == np.float32
        assert np.array_equal(out.labels, ds.labels)
        assert out.num_classes == ds.num_classes

    def test_resize_is_deterministic(self):
        ds = image_dataset(n=3, h=8, w=8)
        policy = AugmentationPolicy(output_height=4, output_width=4)
        a = eval_view_dataset(ds, policy)
        b = eval_view_dataset(ds, policy)
        assert np.array_equal(a.samples, b.samples)

    def test_constant_image_stays_constant(self):
        samples = np.full((2, 9, 9, 3), 0.6, dtype=np.float32)
        ds = LabeledDataset(samples=samples, labels=np.array([0, 1]),
                            num_classes=2)
        out = eval_view_dataset(ds, AugmentationPolicy(output_height=5, output_width=4))
        assert np.allclose(out.samples, 0.6, atol=1e-6)


class TestPolicyOutputSize:
    @pytest.mark.parametrize("size", [(0, 4), (-2, 4), (4, 0)])
    def test_nonpositive_side_rejected(self, size):
        with pytest.raises(ValueError, match="output_height"):
            AugmentationPolicy(output_height=size[0], output_width=size[1])


class TestBatchedImageViews:
    """Every batched view equals the per-view reference pipeline bitwise,
    given the parameters the batch drew for it."""

    CASES = {
        "rgb_resized": dict(h=24, w=24, c=3, policy=dict(output_height=16, output_width=16)),
        "one_channel": dict(h=9, w=7, c=1, policy=dict(output_height=6, output_width=6)),
        "center_fallback": dict(h=4, w=12, c=3,
                                policy=dict(output_height=5, output_width=7,
                                            crop_area_min=0.9, crop_area_max=1.0)),
        "forced_flip": dict(h=10, w=8, c=3,
                            policy=dict(output_height=6, output_width=6, flip_prob=1.0)),
        "forced_gray": dict(h=10, w=8, c=3,
                            policy=dict(output_height=6, output_width=6, grayscale_prob=1.0)),
        "native_size": dict(h=10, w=10, c=3, policy=dict(color_jitter_strength=0.9)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_view_matches_per_view_reference(self, case, seed):
        spec = self.CASES[case]
        h, w, c = spec["h"], spec["w"], spec["c"]
        ds = image_dataset(n=8, h=h, w=w, c=c, seed=seed)
        policy = AugmentationPolicy(**spec["policy"])
        out_size = (policy.output_height, policy.output_width) if policy.output_height else (h, w)
        B, K = 4, 5
        batch = sample_batch(ds, B, K, policy, seed)

        # replay the batch generator: sources first, then the view draws
        rng = np.random.default_rng(seed)
        sources = rng.choice(len(ds), size=B, replace=False)
        attempts = copy.deepcopy(rng)
        drawn = views._draw_image_views(B * K, h, w, policy, rng)
        fracs = attempts.uniform(policy.crop_area_min, policy.crop_area_max,
                                 size=(B * K, views.CROP_ATTEMPTS))
        log_aspects = attempts.uniform(np.log(views.ASPECT_RANGE[0]), np.log(views.ASPECT_RANGE[1]),
                                       size=(B * K, views.CROP_ATTEMPTS))

        picks = np.repeat(sources, K)
        for i in range(B * K):
            ch, cw, fits = reference_crop_size(h, w, fracs[i], log_aspects[i])
            box = tuple(drawn.boxes[i])
            assert (ch, cw) == box[2:]
            if fits:
                assert 0 <= box[0] <= h - ch and 0 <= box[1] <= w - cw
            else:
                assert box[:2] == ((h - ch) // 2, (w - cw) // 2)
            if case == "center_fallback":
                assert not fits
            ref = reference_image_view(ds.samples[picks[i]], box, out_size,
                                       drawn.flip[i], drawn.factors[i], drawn.gray[i])
            assert np.array_equal(batch[i], ref)
        if case == "forced_flip":
            assert drawn.flip.all()
        if case == "forced_gray":
            assert drawn.gray.all()
            assert np.array_equal(batch[..., 0], batch[..., 2])

    @pytest.mark.parametrize("h, w", [(12, 4), (13, 5), (30, 7)])
    def test_center_crop_of_an_image_taller_than_4_by_3(self, h, w):
        ch, cw, fits = reference_crop_size(h, w, [], [])
        assert not fits and ch < h
        assert views._center_crop_size(h, w) == (ch, cw)

    def test_augment_image_is_the_one_view_case(self):
        img = np.random.default_rng(3).random((9, 11, 3)).astype(np.float32)
        policy = AugmentationPolicy(output_height=5, output_width=6, grayscale_prob=0.5)
        for seed in range(5):
            out = augment_image(img, policy, np.random.default_rng(seed))
            d = views._draw_image_views(1, 9, 11, policy, np.random.default_rng(seed))
            ref = reference_image_view(img, d.boxes[0], (5, 6), d.flip[0], d.factors[0], d.gray[0])
            assert np.array_equal(out, ref)

    def test_views_of_one_source_are_pairwise_distinct(self):
        ds = image_dataset(n=4, h=12, w=12)
        policy = AugmentationPolicy(output_height=8, output_width=8)
        group0 = sample_batch(ds, 2, 20, policy, seed=5)[:20]
        for i in range(20):
            for j in range(i + 1, 20):
                assert not np.array_equal(group0[i], group0[j])


class TestEvalFramesReference:
    # 2**16 is the default block size; 2**18 puts every test dataset in one block.
    @pytest.mark.parametrize("block", [1, 100, 2**16, 2**18])
    @pytest.mark.parametrize("shape,out_size", [((12, 10, 3), (6, 5)), ((7, 9, 1), (10, 4))])
    def test_matches_per_image_resize(self, monkeypatch, block, shape, out_size):
        monkeypatch.setattr(views, "_EVAL_BLOCK_ENTRIES", block)
        ds = image_dataset(n=11, h=shape[0], w=shape[1], c=shape[2])
        policy = AugmentationPolicy(output_height=out_size[0], output_width=out_size[1])
        out = eval_view_dataset(ds, policy)
        assert np.array_equal(out.samples, reference_eval_frames(ds.samples, out_size))


def assert_views_match_reference(ds, B, K, policy, seed):
    """Every view of the batch equals `reference_image_view` bitwise, given
    the parameters the batch drew for it; returns the drawn parameters."""
    batch = sample_batch(ds, B, K, policy, seed)
    _, h, w, _ = ds.samples.shape
    rng = np.random.default_rng(seed)
    picks = np.repeat(rng.choice(len(ds), size=B, replace=False), K)
    drawn = views._draw_image_views(B * K, h, w, policy, rng)
    out_size = (policy.output_height, policy.output_width) if policy.output_height else (h, w)
    for i in range(B * K):
        ref = reference_image_view(ds.samples[picks[i]], tuple(drawn.boxes[i]), out_size,
                                   drawn.flip[i], drawn.factors[i], drawn.gray[i])
        assert np.array_equal(batch[i], ref), f"seed {seed}, view {i}"
    return drawn


def pixel_dataset(n, h, w, c, seed):
    """Images as `load_binary_images` gives them: uint8 levels / 255."""
    rng = np.random.default_rng(seed)
    samples = rng.integers(0, 256, size=(n, h, w, c)).astype(np.float32) / 255.0
    return LabeledDataset(samples=samples, labels=np.arange(n) % 2, num_classes=2)


class TestInterpolationMatrixViews:
    """The matmul views against the per-view reference, on shapes the
    bench and the edge cases use; `np.array_equal`, no tolerance."""

    @pytest.mark.parametrize("seed", range(20))
    def test_bench_shape_sweep(self, seed):
        ds = pixel_dataset(40, 24, 24, 3, seed)
        policy = AugmentationPolicy(output_height=16, output_width=16)
        assert_views_match_reference(ds, 16, 8, policy, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_bench_shape_sweep_on_uniform_floats(self, seed):
        ds = image_dataset(n=20, h=24, w=24, c=3, seed=seed)
        policy = AugmentationPolicy(output_height=16, output_width=16)
        assert_views_match_reference(ds, 16, 8, policy, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_crops_smaller_than_the_output(self, seed):
        ds = image_dataset(n=6, h=9, w=8, c=3, seed=seed)
        policy = AugmentationPolicy(output_height=19, output_width=23,
                                    crop_area_min=0.08, crop_area_max=0.5)
        assert_views_match_reference(ds, 3, 6, policy, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_flip_and_grayscale_forced_together(self, seed):
        ds = image_dataset(n=6, h=13, w=11, c=3, seed=seed)
        policy = AugmentationPolicy(output_height=9, output_width=7, flip_prob=1.0,
                                    grayscale_prob=1.0, color_jitter_strength=0.9)
        drawn = assert_views_match_reference(ds, 3, 5, policy, seed)
        assert drawn.flip.all() and drawn.gray.all()

    @pytest.mark.parametrize("seed", range(3))
    def test_four_channel_images(self, seed):
        ds = image_dataset(n=6, h=12, w=10, c=4, seed=seed)
        policy = AugmentationPolicy(output_height=7, output_width=9)
        assert_views_match_reference(ds, 3, 4, policy, seed)

    def test_augment_image_of_a_four_channel_image(self):
        img = np.random.default_rng(9).random((7, 8, 4)).astype(np.float32)
        policy = AugmentationPolicy(output_height=5, output_width=11, flip_prob=1.0)
        for seed in range(3):
            out = augment_image(img, policy, np.random.default_rng(seed))
            d = views._draw_image_views(1, 7, 8, policy, np.random.default_rng(seed))
            ref = reference_image_view(img, d.boxes[0], (5, 11), d.flip[0], d.factors[0], d.gray[0])
            assert np.array_equal(out, ref)

    @pytest.mark.parametrize("shape,out_size", [((7, 9, 3), (17, 20)), ((5, 6, 4), (11, 13)),
                                                ((10, 12, 3), (20, 17))])
    def test_upscaled_eval_frames(self, shape, out_size):
        ds = image_dataset(n=9, h=shape[0], w=shape[1], c=shape[2])
        policy = AugmentationPolicy(output_height=out_size[0], output_width=out_size[1])
        out = eval_view_dataset(ds, policy)
        assert np.array_equal(out.samples, reference_eval_frames(ds.samples, out_size))


class TestImageBatchMemory:
    def test_float64_dataset_gives_the_batch_of_its_float32_copy(self):
        rng = np.random.default_rng(0)
        ds64 = LabeledDataset(samples=rng.random((600, 24, 24, 3)), labels=np.zeros(600, int),
                              num_classes=1)
        ds32 = LabeledDataset(samples=ds64.samples.astype(np.float32), labels=ds64.labels,
                              num_classes=1)
        policy = AugmentationPolicy(output_height=16, output_width=16)
        sample_batch(ds64, 16, 8, policy, 0)
        tracemalloc.start()
        try:
            a = sample_batch(ds64, 16, 8, policy, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        b = sample_batch(ds32, 16, 8, policy, 3)
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32))
        # only the picked sources are cast: no float32 copy of the dataset
        assert peak < ds32.samples.nbytes

    def test_peak_at_the_bench_shape_stays_under_the_gather_pipeline(self):
        ds = pixel_dataset(400, 24, 24, 3, seed=0)
        policy = AugmentationPolicy(output_height=16, output_width=16)
        sample_batch(ds, 16, 8, policy, 0)
        tracemalloc.start()
        try:
            sample_batch(ds, 16, 8, policy, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the per-tap gather resize and sequential jitter this replaced
        # peaked at 3,053,628 bytes here (numpy 2.4); one float64 batch of
        # views is 16 * 8 * 16 * 16 * 3 * 8 = 786,432 bytes
        assert peak <= 3_053_628
