"""Multi-view batch construction: B sources, K stochastic views of each.

A batch step samples B distinct dataset items and augments each one K
times; views of one source form a group, and the group ids are all the
trainer ever sees (labels never leave the dataset, this is
self-supervision).

Each batch draws from one generator seeded by the caller, so the batch is
a pure function of (dataset, B, K, policy, seed): a trainer that seeds
step t from (root seed, t) gets step t's batch back from those two
numbers alone, whatever ran before.

All B*K views of a batch are made in one vectorized pass.  Vector views
draw all dropout masks, then all scales, then all noise.  Image views
(SimCLR-style random resized crop, flip, color jitter, grayscale) draw
every view's crop attempts, crop positions, flips, jitter factors and
grayscale flags as arrays, then one gather-based bilinear resize renders
every crop; `eval_view_dataset` resizes full frames with the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
LUMA = np.array([0.299, 0.587, 0.114])

# the most output values one block of `eval_view_dataset` resizes at once
_EVAL_BLOCK_ENTRIES = 2**18


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
        if self.output_size is not None and min(self.output_size) < 1:
            raise ValueError(f"output_size sides must be >= 1, got {self.output_size}")


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


def _axis_taps(start, size, out: int):
    """Bilinear taps along one axis for n crops ``[start, start + size)``
    resized to ``out`` samples, center-aligned: (n, out) low and high
    source indices and the (n, out) weight of the high one."""
    size = size[:, None]
    pos = np.clip((np.arange(out) + 0.5) * size / out - 0.5, 0, size - 1)
    low = np.floor(pos).astype(np.intp)
    high = np.minimum(low + 1, size - 1)
    return start[:, None] + low, start[:, None] + high, pos - low


def _resize_crops(images, picks, boxes, out_h: int, out_w: int, flip=None):
    """Bilinear resize of crop ``boxes[i] = (top, left, height, width)`` of
    ``images[picks[i]]`` to (out_h, out_w) for every i at once.

    Each of the four bilinear taps is one `np.take` on the flattened
    pixels, so the picked images are never copied; a flipped view reads
    its x taps in reverse.  Returns float64 (n, out_h, out_w, c).
    """
    _, h, w, c = images.shape
    flat = images.reshape(-1, c)
    top, left, height, width = np.asarray(boxes).T
    y0, y1, wy = _axis_taps(top, height, out_h)
    x0, x1, wx = _axis_taps(left, width, out_w)
    if flip is not None:
        x0, x1, wx = (np.where(flip[:, None], a[:, ::-1], a) for a in (x0, x1, wx))
    rows0 = ((picks[:, None] * h + y0) * w)[:, :, None]
    rows1 = ((picks[:, None] * h + y1) * w)[:, :, None]
    x0, x1 = x0[:, None, :], x1[:, None, :]
    # x weights spelled out per channel so the products run over whole rows
    wx = np.repeat(wx[:, None, :, None], c, axis=3)
    wy = wy[:, :, None, None]

    def lerp_x(rows):
        out = np.take(flat, rows + x0, axis=0) * (1 - wx)
        out += np.take(flat, rows + x1, axis=0) * wx
        return out

    out = lerp_x(rows0)
    out *= 1 - wy
    out += lerp_x(rows1) * wy
    return out


class _ImageViewDraws(NamedTuple):
    """The drawn parameters of n image views, one row per view."""

    boxes: np.ndarray  # (n, 4) crop top, left, height, width in source pixels
    flip: np.ndarray  # (n,) bool
    factors: np.ndarray  # (n, 3) brightness, contrast, saturation
    gray: np.ndarray  # (n,) bool


def _center_crop_size(h: int, w: int) -> tuple[int, int]:
    """The largest crop of an h x w image whose aspect lies in ASPECT_RANGE."""
    ratio = w / h
    if ratio < ASPECT_RANGE[0]:
        return min(h, int(round(w / ASPECT_RANGE[0]))), w
    if ratio > ASPECT_RANGE[1]:
        return h, min(w, int(round(h * ASPECT_RANGE[1])))
    return h, w


def _draw_image_views(n: int, h: int, w: int, policy: AugmentationPolicy,
                      draw: np.random.Generator) -> _ImageViewDraws:
    """Draw the parameters of n views of h x w images, in this order: the
    (n, CROP_ATTEMPTS) crop area fractions, the (n, CROP_ATTEMPTS) log
    aspects, the tops, the lefts, the flip draws, the (n, 3) jitter
    factors and the grayscale draws.

    A view crops at its first attempt that fits in the image; a view none
    of whose attempts fits takes the center crop of `_center_crop_size`.
    Every view draws all its attempts and a top and left whether or not
    it uses them, so which attempt fits never shifts the draws after it.
    """
    lo, hi = policy.crop_area_range
    area = draw.uniform(lo, hi, size=(n, CROP_ATTEMPTS)) * h * w
    aspect = np.exp(draw.uniform(np.log(ASPECT_RANGE[0]), np.log(ASPECT_RANGE[1]),
                                 size=(n, CROP_ATTEMPTS)))
    cw = np.rint(np.sqrt(area * aspect)).astype(np.intp)
    ch = np.rint(np.sqrt(area / aspect)).astype(np.intp)
    fits = (cw > 0) & (cw <= w) & (ch > 0) & (ch <= h)
    rows = np.arange(n)
    first = fits.argmax(axis=1)
    drawn = fits[rows, first]
    center_h, center_w = _center_crop_size(h, w)
    ch = np.where(drawn, ch[rows, first], center_h)
    cw = np.where(drawn, cw[rows, first], center_w)
    top = np.where(drawn, draw.integers(0, h - ch + 1), (h - ch) // 2)
    left = np.where(drawn, draw.integers(0, w - cw + 1), (w - cw) // 2)
    flip = draw.random(n) < policy.flip_prob
    s = policy.color_jitter_strength
    factors = draw.uniform(max(0.0, 1.0 - s), 1.0 + s, size=(n, 3))
    gray = draw.random(n) < policy.grayscale_prob
    return _ImageViewDraws(np.stack([top, left, ch, cw], axis=1), flip, factors, gray)


def _color_jitter(views: np.ndarray, factors: np.ndarray, gray: np.ndarray) -> np.ndarray:
    """Brightness, contrast and saturation jitter, then grayscale where
    ``gray`` is set, of float64 (n, h, w, c) views (modified in place);
    returns them clamped to [0, 1] as float32.  Saturation and grayscale
    only touch 3-channel views."""
    fb, fc, fs = factors.T[..., None, None, None]
    views *= fb
    mean = views.mean(axis=(1, 2, 3), keepdims=True)
    views -= mean
    views *= fc
    views += mean
    if views.shape[-1] == 3:
        lum = np.repeat((views @ LUMA)[..., None], 3, axis=3)
        views -= lum
        views *= fs
        views += lum
        if gray.any():
            views[gray] = (views[gray] @ LUMA)[..., None]
    np.clip(views, 0.0, 1.0, out=views)
    return views.astype(np.float32)


def _image_views(images: np.ndarray, picks: np.ndarray, policy: AugmentationPolicy,
                 draw: np.random.Generator) -> np.ndarray:
    """One stochastic view of ``images[i]`` for each i in ``picks``, all in
    one pass: draw every view's parameters, resize every crop, jitter."""
    _, h, w, _ = images.shape
    out_h, out_w = policy.output_size if policy.output_size is not None else (h, w)
    p = _draw_image_views(len(picks), h, w, policy, draw)
    views = _resize_crops(images, picks, p.boxes, out_h, out_w, p.flip)
    return _color_jitter(views, p.factors, p.gray)


def augment_image(sample, policy: AugmentationPolicy, draw: np.random.Generator) -> np.ndarray:
    """One stochastic view of a channels-last float image in [0, 1].

    Pipeline: random resized crop, bilinear resize, horizontal flip,
    brightness/contrast/saturation jitter, random grayscale, clamp to
    [0, 1].  Saturation and grayscale only touch 3-channel images.  This
    is the one-view case of `sample_batch`'s image pass, so it consumes
    randomness in the order `_draw_image_views` gives.
    """
    img = np.asarray(sample, dtype=np.float32)
    if img.ndim != 3:
        raise ValueError(f"expected an (h, w, c) image, got shape {img.shape}")
    return _image_views(img[None], np.zeros(1, dtype=np.intp), policy, draw)[0]


def eval_view_dataset(dataset, policy: AugmentationPolicy):
    """Deterministic evaluation-time counterpart of the training views.

    When an image policy resizes its crops, encoder inputs have the
    policy's output geometry rather than the raw sample geometry, so
    evaluation must feed full frames resized the same way (no crop,
    flip, or jitter).  Vector datasets and size-preserving policies pass
    through unchanged.  Images are resized in blocks of at most
    `_EVAL_BLOCK_ENTRIES` output values.
    """
    from .data import LabeledDataset

    samples = dataset.samples
    if samples.ndim != 4 or policy.output_size is None:
        return dataset
    out_h, out_w = policy.output_size
    n, h, w, c = samples.shape
    if (h, w) == (out_h, out_w):
        return dataset
    resized = np.empty((n, out_h, out_w, c), dtype=np.float32)
    step = max(1, _EVAL_BLOCK_ENTRIES // (out_h * out_w * c))
    for a in range(0, n, step):
        picks = np.arange(a, min(a + step, n))
        frames = np.broadcast_to((0, 0, h, w), (len(picks), 4))
        resized[a : a + step] = _resize_crops(samples, picks, frames, out_h, out_w)
    return LabeledDataset(samples=resized, labels=dataset.labels,
                          num_classes=dataset.num_classes)


def sample_batch(dataset, B: int, K: int, policy: AugmentationPolicy, seed) -> ViewBatch:
    """Draw B distinct sources and K independently augmented views of each.

    ``seed`` is an integer or a `numpy.random.SeedSequence`; one generator
    built from it draws the sources, then every view in one batched call:
    `augment_vector` on the B*K picked rows, or for images every view's
    parameters in the order `_draw_image_views` gives (all crop area
    fractions, all log aspects, tops, lefts, flips, jitter factors,
    grayscale flags).  The seed is not mutated, so reusing it reproduces
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
        views = _image_views(np.asarray(samples, dtype=np.float32), picks, policy, rng)
    else:
        views = augment_vector(samples[picks], policy, rng)
    return ViewBatch(views=views, groups=np.repeat(np.arange(B), K), source_indices=sources)
