"""Synthetic cluster generation, binary image IO, stratified splitting."""

import os
import struct

import numpy as np
import pytest

import s2r2.atomic as atomic
from s2r2 import (
    LabeledDataset,
    SyntheticSpec,
    generate_synthetic,
    load_binary_images,
    save_binary_images,
    split,
    train_linear_probe,
)
from s2r2.data import IMAGE_MAGIC


def raw_probe_accuracy(dataset, seed=0):
    """Accuracy of a linear probe trained directly on the raw features."""
    train, test = split(dataset, 0.8, seed=seed)
    result = train_linear_probe(
        train.samples, train.labels, test.samples, test.labels,
        num_classes=dataset.num_classes, seed=seed,
    )
    return result.top1_accuracy


class TestGenerateSynthetic:
    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(num_classes=10, dim=64, samples_per_class=100)
        a, b = generate_synthetic(spec, 5), generate_synthetic(spec, 5)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.labels, b.labels)
        c = generate_synthetic(spec, 6)
        assert not np.array_equal(a.samples, c.samples)

    @pytest.mark.parametrize("spec", [
        SyntheticSpec(num_classes=10, dim=64, samples_per_class=100),
        SyntheticSpec(num_classes=3, dim=7, samples_per_class=1, cluster_spread=2.0,
                      center_scale=0.5),
        SyntheticSpec(num_classes=1, dim=5, samples_per_class=9),
        SyntheticSpec(num_classes=4, dim=12, samples_per_class=6, mix_count=2),
        SyntheticSpec(num_classes=3, dim=9, samples_per_class=5, cluster_spread=0.7,
                      center_scale=2.0, mix_count=3),
    ])
    def test_single_source_replays_centers_plus_noise(self, spec):
        # draw order: centers per block, distractor picks (none for one
        # block), noise; block 0 takes the label's center, block b >= 1
        # the center of its picked class
        rng = np.random.default_rng(5)
        n = spec.num_classes * spec.samples_per_class
        block = spec.dim // spec.mix_count
        centers = rng.normal(0.0, spec.center_scale,
                             size=(spec.mix_count, spec.num_classes, block))
        picks = rng.integers(0, spec.num_classes, size=(n, spec.mix_count - 1))
        noise = rng.normal(0.0, spec.cluster_spread, size=(n, spec.dim))
        labels = np.repeat(np.arange(spec.num_classes), spec.samples_per_class)
        sources = np.column_stack([labels, picks])
        expected = np.hstack([centers[b, sources[:, b]] for b in range(spec.mix_count)])
        ds = generate_synthetic(spec, 5)
        assert np.array_equal(ds.labels, labels)
        assert np.array_equal(ds.samples, expected + noise)

    def test_shapes_and_labels(self):
        ds = generate_synthetic(SyntheticSpec(num_classes=4, dim=8, samples_per_class=25), 0)
        assert ds.samples.shape == (100, 8)
        assert np.array_equal(np.bincount(ds.labels), [25] * 4)

    def test_degenerate_spread_collapses_to_centers(self):
        spec = SyntheticSpec(num_classes=3, dim=6, samples_per_class=10,
                             cluster_spread=1e-12)
        ds = generate_synthetic(spec, 1)
        for cls in range(3):
            rows = ds.samples[ds.labels == cls]
            assert np.max(np.abs(rows - rows[0])) <= 1e-10

    def test_raw_features_linearly_separable_at_low_spread(self):
        spec = SyntheticSpec(num_classes=10, dim=64, samples_per_class=50,
                             cluster_spread=0.1, center_scale=1.0)
        assert raw_probe_accuracy(generate_synthetic(spec, 2)) >= 0.99

    def test_separability_monotone_in_spread(self):
        # seed-averaged probe accuracy must not increase with spread
        spreads = (0.1, 0.5, 1.0, 2.0)
        avg = []
        for spread in spreads:
            accs = []
            for seed in range(5):
                spec = SyntheticSpec(num_classes=8, dim=16, samples_per_class=40,
                                     cluster_spread=spread)
                accs.append(raw_probe_accuracy(generate_synthetic(spec, seed), seed=seed))
            avg.append(np.mean(accs))
        for lo, hi in zip(avg[1:], avg[:-1]):
            assert lo <= hi + 0.005

    def test_mixed_source_blocks_and_labels(self):
        spec = SyntheticSpec(num_classes=5, dim=12, samples_per_class=30,
                             cluster_spread=1e-12, mix_count=3)
        ds = generate_synthetic(spec, 3)
        block = spec.dim // spec.mix_count
        # the first block is fully determined by the label
        for cls in range(5):
            first = ds.samples[ds.labels == cls, :block]
            assert np.max(np.abs(first - first[0])) <= 1e-10
        # distractor blocks mix across samples of one class
        tail = ds.samples[ds.labels == 0, block:]
        assert np.max(np.abs(tail - tail[0])) > 1e-3

    def test_mixed_source_needs_divisible_dim(self):
        with pytest.raises(ValueError):
            SyntheticSpec(num_classes=3, dim=10, samples_per_class=5, mix_count=3)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(num_classes=3, dim=4, samples_per_class=5, cluster_spread=0.0)
        with pytest.raises(ValueError):
            SyntheticSpec(num_classes=3, dim=4, samples_per_class=5, center_scale=-1.0)
        with pytest.raises(ValueError, match="mix_count must be >= 1"):
            SyntheticSpec(num_classes=3, dim=4, samples_per_class=5, mix_count=0)
        # -2 divides dim 4, so only the lower bound refuses it
        with pytest.raises(ValueError, match="mix_count must be >= 1"):
            SyntheticSpec(num_classes=3, dim=4, samples_per_class=5, mix_count=-2)


class TestLabeledDataset:
    @pytest.mark.parametrize("labels", [np.zeros((3, 1), dtype=int), np.zeros(2, dtype=int)],
                             ids=["2-d", "wrong-count"])
    def test_rejects_labels_of_the_wrong_shape(self, labels):
        with pytest.raises(ValueError, match="labels must be 1-d and match"):
            LabeledDataset(np.zeros((3, 2)), labels, num_classes=2)

    @pytest.mark.parametrize("labels", [[0, -1, 1], [0, 2, 1]], ids=["negative", "num_classes"])
    def test_rejects_labels_outside_the_classes(self, labels):
        with pytest.raises(ValueError, match=r"labels must lie in \[0, num_classes\)"):
            LabeledDataset(np.zeros((3, 2)), np.array(labels), num_classes=2)


class TestSplit:
    def test_even_stratification(self):
        ds = generate_synthetic(SyntheticSpec(num_classes=10, dim=4, samples_per_class=10), 4)
        train, test = split(ds, 0.5, seed=0)
        assert len(train) == len(test) == 50
        assert np.array_equal(np.bincount(train.labels), [5] * 10)
        assert np.array_equal(np.bincount(test.labels), [5] * 10)

    def test_partition_exhaustive_and_disjoint(self):
        ds = generate_synthetic(SyntheticSpec(num_classes=6, dim=5, samples_per_class=17), 5)
        train, test = split(ds, 0.7, seed=1)
        assert len(train) + len(test) == len(ds)
        all_rows = {row.tobytes() for row in ds.samples}
        train_rows = {row.tobytes() for row in train.samples}
        test_rows = {row.tobytes() for row in test.samples}
        assert train_rows | test_rows == all_rows
        assert not (train_rows & test_rows)

    def test_deterministic_per_seed(self):
        ds = generate_synthetic(SyntheticSpec(num_classes=4, dim=3, samples_per_class=20), 6)
        a1, b1 = split(ds, 0.6, seed=7)
        a2, b2 = split(ds, 0.6, seed=7)
        assert np.array_equal(a1.samples, a2.samples)
        assert np.array_equal(b1.samples, b2.samples)
        a3, _ = split(ds, 0.6, seed=8)
        assert not np.array_equal(a1.samples, a3.samples)

    def test_both_sides_nonempty_even_at_extreme_fraction(self):
        ds = generate_synthetic(SyntheticSpec(num_classes=2, dim=3, samples_per_class=3), 9)
        train, test = split(ds, 0.99, seed=0)
        assert np.all(np.bincount(train.labels) >= 1)
        assert np.all(np.bincount(test.labels) >= 1)

    def test_invalid_fraction_rejected(self):
        ds = generate_synthetic(SyntheticSpec(num_classes=2, dim=3, samples_per_class=5), 0)
        for bad in (0.0, 1.0, -0.3):
            with pytest.raises(ValueError):
                split(ds, bad, seed=0)

    def test_singleton_class_rejected(self):
        ds = LabeledDataset(samples=np.zeros((3, 2)), labels=np.array([0, 0, 1]), num_classes=2)
        with pytest.raises(ValueError):
            split(ds, 0.5, seed=0)


class TestBinaryImages:
    def sample_bundle(self):
        rng = np.random.default_rng(50)
        pixels = rng.integers(0, 256, size=(2, 4, 5, 3), dtype=np.uint8)
        labels = np.array([1, 0])
        return pixels, labels

    def test_round_trip(self, tmp_path):
        pixels, labels = self.sample_bundle()
        path = tmp_path / "imgs.bin"
        save_binary_images(path, pixels, labels, num_classes=2)
        ds = load_binary_images(path)
        assert ds.samples.shape == (2, 4, 5, 3)
        assert ds.samples.dtype == np.float32
        assert np.array_equal(ds.labels, labels)
        assert ds.num_classes == 2
        assert np.array_equal(ds.samples, pixels.astype(np.float32) / 255.0)
        assert ds.samples.min() >= 0.0 and ds.samples.max() <= 1.0

    def test_bytes_follow_the_layout(self, tmp_path):
        pixels, labels = self.sample_bundle()
        path = tmp_path / "imgs.bin"
        save_binary_images(path, pixels, labels, num_classes=2)
        assert path.read_bytes() == (IMAGE_MAGIC + struct.pack("<5I", 2, 4, 5, 3, 2)
                                     + pixels.tobytes() + labels.astype("<u2").tobytes())

    def test_failed_write_keeps_previous_bundle(self, tmp_path, monkeypatch):
        pixels, labels = self.sample_bundle()
        path = tmp_path / "imgs.bin"
        save_binary_images(path, pixels, labels, num_classes=2)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(atomic.os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            save_binary_images(path, pixels[::-1], labels[::-1], num_classes=2)
        assert path.read_bytes() == before
        assert np.array_equal(load_binary_images(path).labels, labels)
        assert os.listdir(tmp_path) == ["imgs.bin"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "imgs.bin"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 40)
        with pytest.raises(ValueError, match="bad magic"):
            load_binary_images(path)

    def test_truncated_payload(self, tmp_path):
        pixels, labels = self.sample_bundle()
        path = tmp_path / "imgs.bin"
        save_binary_images(path, pixels, labels, num_classes=2)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 3])
        with pytest.raises(ValueError, match=f"expected {len(blob)} bytes, file has {len(blob) - 3}"):
            load_binary_images(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "imgs.bin"
        path.write_bytes(IMAGE_MAGIC + b"\x01\x00")
        with pytest.raises(ValueError, match="incomplete header"):
            load_binary_images(path)

    def test_label_out_of_range(self, tmp_path):
        pixels, labels = self.sample_bundle()
        path = tmp_path / "imgs.bin"
        save_binary_images(path, pixels, labels, num_classes=2)
        blob = bytearray(path.read_bytes())
        # patch the last label (little-endian u16) to num_classes
        blob[-2:] = (2).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=r"label 2 outside \[0, 2\)"):
            load_binary_images(path)

    @pytest.mark.parametrize("dims", [(3, 0, 4, 3), (3, 4, 0, 3), (3, 4, 4, 0)])
    def test_zero_side_or_channel_header_rejected(self, tmp_path, dims):
        n, h, w, c = dims
        path = tmp_path / "imgs.bin"
        path.write_bytes(IMAGE_MAGIC + struct.pack("<5I", n, h, w, c, 2)
                         + bytes(n * h * w * c) + bytes(2 * n))
        with pytest.raises(ValueError, match="must be positive") as info:
            load_binary_images(path)
        assert str(path) in str(info.value)

    def test_unaddressable_image_size_rejected(self, tmp_path):
        # no images, so the file length cannot bound the declared sides
        path = tmp_path / "imgs.bin"
        side = 2**32 - 1
        path.write_bytes(IMAGE_MAGIC + struct.pack("<5I", 0, side, side, 3, 2))
        with pytest.raises(ValueError, match="too large") as info:
            load_binary_images(path)
        assert str(path) in str(info.value)

    def test_writer_rejects_zero_sides(self, tmp_path):
        with pytest.raises(ValueError, match="must be positive"):
            save_binary_images(tmp_path / "x.bin", np.zeros((2, 0, 4, 3), dtype=np.uint8),
                               np.array([0, 1]), num_classes=2)

    @pytest.mark.parametrize("pixels", [np.zeros((2, 4, 5, 3), dtype=np.float32),
                                        np.zeros((2, 4, 5), dtype=np.uint8)],
                             ids=["float32", "3-d"])
    def test_writer_rejects_pixels_not_4d_uint8(self, tmp_path, pixels):
        with pytest.raises(ValueError, match=r"uint8 array of shape \(n, h, w, c\)"):
            save_binary_images(tmp_path / "x.bin", pixels, np.array([0, 1]), num_classes=2)

    def test_writer_rejects_a_label_count_that_does_not_match(self, tmp_path):
        pixels, _ = self.sample_bundle()
        with pytest.raises(ValueError, match="one entry per image"):
            save_binary_images(tmp_path / "x.bin", pixels, np.array([0, 1, 0]), num_classes=2)

    def test_writer_rejects_classes_past_the_label_field_leaving_no_file(self, tmp_path):
        pixels, labels = self.sample_bundle()
        with pytest.raises(ValueError, match="uint16 label field"):
            save_binary_images(tmp_path / "x.bin", pixels, labels, num_classes=0x10000)
        assert os.listdir(tmp_path) == []

    def test_writer_rejects_bad_labels(self, tmp_path):
        pixels, _ = self.sample_bundle()
        with pytest.raises(ValueError, match=r"labels must lie in \[0, num_classes\)"):
            save_binary_images(tmp_path / "x.bin", pixels, np.array([0, 5]), num_classes=2)
