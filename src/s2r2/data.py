"""Synthetic clustered datasets and a small binary labeled-image format.

The synthetic generator is the desk-scale benchmark: Gaussian clusters
whose spread controls how separable the classes are.  ``single_source``
draws every feature of a sample from its class cluster; ``mixed_source``
splits the feature vector into ``mix_count`` blocks, draws each block from
an independently clustered pool, and labels by the first block only, so
most features are distractors (a stand-in for scenes that contain several
unrelated objects).

Image datasets use a fixed binary layout (see `IMAGE_MAGIC`) with uint8
pixels stored channels-last; pixels load as floats in [0, 1].
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write

__all__ = [
    "SyntheticSpec",
    "LabeledDataset",
    "BadMagicError",
    "TruncatedFileError",
    "LabelRangeError",
    "generate_synthetic",
    "load_binary_images",
    "save_binary_images",
    "split",
    "IMAGE_MAGIC",
]

IMAGE_MAGIC = b"S2R2IMG1"

# the most values one image may declare: its float32 pixels stay addressable
MAX_IMAGE_VALUES = np.iinfo(np.intp).max // np.dtype(np.float32).itemsize

COMPOSITIONS = ("single_source", "mixed_source")


class BadMagicError(ValueError):
    """The file does not start with the expected magic string."""


class TruncatedFileError(ValueError):
    """The file ends before the declared payload is complete."""


class LabelRangeError(ValueError):
    """A stored label is outside [0, num_classes)."""


@dataclass
class SyntheticSpec:
    num_classes: int
    dim: int
    samples_per_class: int
    cluster_spread: float = 0.3
    center_scale: float = 1.0
    composition: str = "single_source"
    mix_count: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.num_classes, self.dim, self.samples_per_class) < 1:
            raise ValueError("num_classes, dim and samples_per_class must be >= 1")
        if not self.cluster_spread > 0:
            raise ValueError("cluster_spread must be positive")
        if not self.center_scale > 0:
            raise ValueError("center_scale must be positive")
        if self.composition not in COMPOSITIONS:
            raise ValueError(f"composition must be one of {COMPOSITIONS}")
        if self.composition == "mixed_source":
            if self.mix_count < 2:
                raise ValueError("mixed_source needs mix_count >= 2")
            if self.dim % self.mix_count != 0:
                raise ValueError(
                    f"dim ({self.dim}) must be divisible by mix_count ({self.mix_count})"
                )
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass
class LabeledDataset:
    """Feature matrix (n, dim) or image tensor (n, h, w, c) plus labels."""

    samples: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 1 or self.labels.shape[0] != self.samples.shape[0]:
            raise ValueError("labels must be 1-d and match the number of samples")
        if self.labels.size and not (
            0 <= self.labels.min() and self.labels.max() < self.num_classes
        ):
            raise ValueError("labels must lie in [0, num_classes)")

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def feature_dim(self) -> int:
        """Width after flattening any image axes."""
        return int(np.prod(self.samples.shape[1:]))

    def flat_samples(self) -> np.ndarray:
        # reshape(n, -1) cannot infer the trailing dim when n == 0
        width = int(np.prod(self.samples.shape[1:]))
        return self.samples.reshape(len(self), width)

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices)
        return LabeledDataset(self.samples[idx], self.labels[idx], self.num_classes)


def generate_synthetic(spec: SyntheticSpec) -> LabeledDataset:
    """Deterministic Gaussian-cluster dataset, one cluster per class.

    Draw order (fixed, so outputs are reproducible per seed): cluster
    centers, then distractor-block class picks (mixed only), then all
    sample noise at once.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.num_classes * spec.samples_per_class
    labels = np.repeat(np.arange(spec.num_classes), spec.samples_per_class)

    if spec.composition == "single_source":
        centers = rng.normal(0.0, spec.center_scale, size=(spec.num_classes, spec.dim))
        samples = rng.normal(0.0, spec.cluster_spread, size=(n, spec.dim))
        # labels run class by class: add each center to its block of rows
        by_class = samples.reshape(spec.num_classes, spec.samples_per_class, spec.dim)
        by_class += centers[:, None]
    else:
        block = spec.dim // spec.mix_count
        centers = rng.normal(
            0.0, spec.center_scale, size=(spec.mix_count, spec.num_classes, block)
        )
        distractors = rng.integers(
            0, spec.num_classes, size=(n, spec.mix_count - 1), dtype=np.int64
        )
        noise = rng.normal(0.0, spec.cluster_spread, size=(n, spec.dim))
        samples = np.empty((n, spec.dim))
        samples[:, :block] = centers[0, labels]
        for b in range(1, spec.mix_count):
            samples[:, b * block : (b + 1) * block] = centers[b, distractors[:, b - 1]]
        samples += noise

    return LabeledDataset(samples=samples, labels=labels, num_classes=spec.num_classes)


def save_binary_images(path, pixels, labels, num_classes: int) -> None:
    """Write uint8 channels-last images in the `IMAGE_MAGIC` layout, atomically."""
    px = np.asarray(pixels)
    lb = np.asarray(labels)
    if px.ndim != 4 or px.dtype != np.uint8:
        raise ValueError("pixels must be a uint8 array of shape (n, h, w, c)")
    n, h, w, c = px.shape
    if 0 in (h, w, c):
        raise ValueError(f"image height, width and channels must be positive, got {h}x{w}x{c}")
    if lb.shape != (n,):
        raise ValueError("labels must have one entry per image")
    if lb.size and not (0 <= lb.min() and lb.max() < num_classes):
        raise LabelRangeError("labels must lie in [0, num_classes)")
    if num_classes > 0xFFFF:
        raise ValueError("num_classes does not fit the uint16 label field")
    with atomic_write(path, "wb") as fh:
        fh.write(IMAGE_MAGIC)
        fh.write(struct.pack("<5I", n, h, w, c, num_classes))
        fh.write(px.tobytes())
        fh.write(lb.astype("<u2").tobytes())


def load_binary_images(path) -> LabeledDataset:
    """Read the binary image layout; pixels come back as float32 in [0, 1].

    The magic and the header are read first, and the payload only once
    the file's size matches what the header declares, so a bad file costs
    no more memory than its header.
    """
    header_end = len(IMAGE_MAGIC) + 20
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(header_end)
        if head[: len(IMAGE_MAGIC)] != IMAGE_MAGIC:
            raise BadMagicError(f"{path}: not an image bundle (bad magic)")
        if len(head) < header_end:
            raise TruncatedFileError(f"{path}: incomplete header")
        n, h, w, c, num_classes = struct.unpack_from("<5I", head, len(IMAGE_MAGIC))
        if 0 in (h, w, c):
            raise ValueError(f"{path}: image height, width and channels must be positive, "
                             f"header declares {h}x{w}x{c}")
        if h * w * c > MAX_IMAGE_VALUES:
            raise ValueError(f"{path}: header declares {h}x{w}x{c} images, too large to address")
        pixel_bytes = n * h * w * c
        expected = header_end + pixel_bytes + 2 * n
        if size < expected:
            raise TruncatedFileError(f"{path}: expected {expected} bytes, file has {size}")
        if size > expected:
            raise ValueError(f"{path}: trailing bytes after payload")
        blob = fh.read(expected - header_end)
    px = np.frombuffer(blob, dtype=np.uint8, count=pixel_bytes)
    labels = np.frombuffer(blob, dtype="<u2", count=n, offset=pixel_bytes)
    if labels.size and labels.max() >= num_classes:
        raise LabelRangeError(
            f"{path}: label {int(labels.max())} outside [0, {num_classes})"
        )
    samples = (px.reshape(n, h, w, c).astype(np.float32)) / 255.0
    return LabeledDataset(
        samples=samples, labels=labels.astype(np.int64), num_classes=num_classes
    )


def split(dataset: LabeledDataset, fraction: float, seed: int):
    """Class-stratified, seed-deterministic partition into (train, test).

    Every class contributes ``round(fraction * count)`` samples to the
    train side, clipped so both sides keep at least one.  A class with no
    samples is skipped; one with a single sample cannot be split.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for cls in range(dataset.num_classes):
        idx = np.flatnonzero(dataset.labels == cls)
        if idx.size == 0:
            continue
        if idx.size < 2:
            raise ValueError(f"class {cls} has {idx.size} sample(s); need >= 2 to split")
        perm = rng.permutation(idx)
        n_train = int(np.clip(round(fraction * idx.size), 1, idx.size - 1))
        train_idx.append(perm[:n_train])
        test_idx.append(perm[n_train:])
    train = np.sort(np.concatenate(train_idx))
    test = np.sort(np.concatenate(test_idx))
    return dataset.subset(train), dataset.subset(test)
