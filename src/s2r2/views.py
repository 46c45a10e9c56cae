"""Multi-view batch construction: B sources, K stochastic views of each.

A batch step samples B distinct dataset items and augments each one K
times; views of one source form a group, and the group ids are all the
trainer ever sees (labels never leave the dataset, this is
self-supervision).

Each batch draws from one generator seeded by the caller, so the batch is
a pure function of (dataset, B, K, policy, seed): a trainer that seeds
step t from (root seed, t) gets step t's batch back from those two
numbers alone, whatever ran before.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AugmentationPolicy",
    "ViewBatch",
    "sample_batch",
    "augment_vector",
    "augment_image",
]

ASPECT_RANGE = (3.0 / 4.0, 4.0 / 3.0)
CROP_ATTEMPTS = 10


@dataclass
class AugmentationPolicy:
    """Knobs for the stochastic view transforms.

    Vector data uses coordinate dropout, a global scale jitter drawn
    uniformly from ``1 +/- scale_jitter`` and additive Gaussian noise.
    Image data uses random resized crops, horizontal flips, color jitter
    and random grayscale.
    """

    # vector fields
    noise_std: float = 0.1
    scale_jitter: float = 0.1
    coordinate_dropout_prob: float = 0.1
    # image fields
    crop_area_range: tuple[float, float] = (0.08, 1.0)
    output_size: tuple[int, int] | None = None
    flip_prob: float = 0.5
    color_jitter_strength: float = 0.5
    grayscale_prob: float = 0.2

    def __post_init__(self) -> None:
        if self.noise_std < 0 or self.scale_jitter < 0:
            raise ValueError("noise_std and scale_jitter must be >= 0")
        if not 0.0 <= self.coordinate_dropout_prob < 1.0:
            raise ValueError("coordinate_dropout_prob must lie in [0, 1)")
        lo, hi = self.crop_area_range
        if not (0.0 < lo <= hi <= 1.0):
            raise ValueError("crop_area_range must satisfy 0 < min <= max <= 1")
        for name, p in (("flip_prob", self.flip_prob), ("grayscale_prob", self.grayscale_prob)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.color_jitter_strength < 0:
            raise ValueError("color_jitter_strength must be >= 0")


@dataclass
class ViewBatch:
    """Augmented views plus the group structure; deliberately label-free."""

    views: np.ndarray  # (B*K, ...) stacked views
    groups: np.ndarray  # (B*K,) group id in [0, B)
    source_indices: np.ndarray  # (B,) dataset indices the groups came from


def augment_vector(sample, policy: AugmentationPolicy, draw: np.random.Generator) -> np.ndarray:
    """One stochastic view of each row of a ``(d,)`` or ``(n, d)`` input.

    Every row gets its own dropout mask, one scale factor for the whole
    row and its own noise.  Consumes randomness from ``draw`` in this
    order: the dropout masks of all rows, the per-row scale factors, the
    additive noise of all rows.
    """
    x = np.asarray(sample, dtype=np.float64)
    keep = draw.random(x.shape) >= policy.coordinate_dropout_prob
    scale = draw.uniform(1.0 - policy.scale_jitter, 1.0 + policy.scale_jitter,
                         size=x.shape[:-1] + (1,))
    noise = draw.normal(0.0, policy.noise_std, size=x.shape)
    return x * keep * scale + noise


def _bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Channels-last bilinear resize with center-aligned sampling."""
    h, w = img.shape[:2]
    ys = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    top = img[y0][:, x0] * (1 - wx) + img[y0][:, x1] * wx
    bot = img[y1][:, x0] * (1 - wx) + img[y1][:, x1] * wx
    return top * (1 - wy) + bot * wy


def _random_crop_box(h, w, policy, draw):
    """Random area/aspect crop box; falls back to the largest valid
    aspect-clamped center crop when the drawn boxes do not fit."""
    lo, hi = policy.crop_area_range
    log_lo, log_hi = np.log(ASPECT_RANGE[0]), np.log(ASPECT_RANGE[1])
    for _ in range(CROP_ATTEMPTS):
        area = draw.uniform(lo, hi) * h * w
        aspect = np.exp(draw.uniform(log_lo, log_hi))
        cw = int(round(np.sqrt(area * aspect)))
        ch = int(round(np.sqrt(area / aspect)))
        if 0 < cw <= w and 0 < ch <= h:
            top = int(draw.integers(0, h - ch + 1))
            left = int(draw.integers(0, w - cw + 1))
            return top, left, ch, cw
    in_ratio = w / h
    if in_ratio < ASPECT_RANGE[0]:
        cw, ch = w, min(h, int(round(w / ASPECT_RANGE[0])))
    elif in_ratio > ASPECT_RANGE[1]:
        ch, cw = h, min(w, int(round(h * ASPECT_RANGE[1])))
    else:
        ch, cw = h, w
    return (h - ch) // 2, (w - cw) // 2, ch, cw


def augment_image(sample, policy: AugmentationPolicy, draw: np.random.Generator) -> np.ndarray:
    """One stochastic view of a channels-last float image in [0, 1].

    Pipeline (randomness consumed in this order): random resized crop
    (area fraction, log aspect, position), bilinear resize, horizontal
    flip, brightness/contrast/saturation jitter, random grayscale, clamp
    to [0, 1].  Saturation and grayscale only touch 3-channel images.
    """
    img = np.asarray(sample, dtype=np.float32)
    if img.ndim != 3:
        raise ValueError(f"expected an (h, w, c) image, got shape {img.shape}")
    h, w, c = img.shape
    out_h, out_w = policy.output_size if policy.output_size is not None else (h, w)

    top, left, ch, cw = _random_crop_box(h, w, policy, draw)
    view = _bilinear_resize(img[top : top + ch, left : left + cw], out_h, out_w)

    if draw.random() < policy.flip_prob:
        view = view[:, ::-1]

    s = policy.color_jitter_strength
    fb, fc, fs = draw.uniform(max(0.0, 1.0 - s), 1.0 + s, size=3)
    view = view * fb
    mean = view.mean()
    view = (view - mean) * fc + mean
    if c == 3:
        lum = view @ np.array([0.299, 0.587, 0.114], dtype=view.dtype)
        view = (view - lum[..., None]) * fs + lum[..., None]
        if draw.random() < policy.grayscale_prob:
            lum = view @ np.array([0.299, 0.587, 0.114], dtype=view.dtype)
            view = np.repeat(lum[..., None], 3, axis=2)
    else:
        draw.random()  # keep the draw count shape-independent
    return np.clip(view, 0.0, 1.0).astype(np.float32)


def eval_view_dataset(dataset, policy: AugmentationPolicy):
    """Deterministic evaluation-time counterpart of the training views.

    When an image policy resizes its crops, encoder inputs have the
    policy's output geometry rather than the raw sample geometry, so
    evaluation must feed full frames resized the same way (no crop,
    flip, or jitter).  Vector datasets and size-preserving policies pass
    through unchanged.
    """
    from .data import LabeledDataset

    samples = dataset.samples
    if samples.ndim != 4 or policy.output_size is None:
        return dataset
    out_h, out_w = policy.output_size
    if samples.shape[1:3] == (out_h, out_w):
        return dataset
    resized = np.stack([
        _bilinear_resize(np.asarray(img, dtype=np.float64), out_h, out_w)
        for img in samples
    ]).astype(np.float32)
    return LabeledDataset(samples=resized, labels=dataset.labels,
                          num_classes=dataset.num_classes)


def sample_batch(dataset, B: int, K: int, policy: AugmentationPolicy, seed) -> ViewBatch:
    """Draw B distinct sources and K independently augmented views of each.

    ``seed`` is an integer or a `numpy.random.SeedSequence`; one generator
    built from it draws the sources, then the views in row order (vector
    data in one batched `augment_vector` call, images one `augment_image`
    call per view).  The seed is not mutated, so reusing it reproduces
    the batch.  Views of one group sit in K consecutive rows.
    """
    if B < 2:
        raise ValueError("B must be >= 2 (otherwise a query has no negatives)")
    if K < 2:
        raise ValueError("K must be >= 2 (otherwise a query has no positives)")
    n = len(dataset)
    if B > n:
        raise ValueError(f"cannot draw {B} distinct sources from {n} samples")

    rng = np.random.default_rng(seed)
    sources = rng.choice(n, size=B, replace=False)
    picks = np.repeat(sources, K)
    samples = dataset.samples
    if samples.ndim == 4:
        views = np.stack([augment_image(samples[i], policy, rng) for i in picks])
    else:
        views = augment_vector(samples[picks], policy, rng)
    return ViewBatch(views=views, groups=np.repeat(np.arange(B), K), source_indices=sources)
