"""Multi-view batch construction: B sources, K stochastic views of each.

A batch step samples B distinct dataset items and augments each one K
times.  The K views of a source fill K consecutive rows, so the batch's
shape is all the trainer ever sees of its structure (labels never leave
the dataset, this is self-supervision).

Each batch draws from one generator seeded by the caller, so the batch is
a pure function of (dataset, B, K, policy, seed): a trainer that seeds
step t from (root seed, t) gets step t's batch back from those two
numbers alone, whatever ran before.

All B*K views of a batch are made in one vectorized pass.  Vector views
draw all dropout masks, then all scales, then all noise.  Image views
(SimCLR-style random resized crop, flip, color jitter, grayscale) draw
every view's crop attempts, crop positions, flips, jitter factors and
grayscale flags as arrays.  A view's crop, resize and flip are two
bilinear interpolation matrices, applied as two batched matmuls, the
first once per source for all K of its views; its brightness, contrast,
saturation and grayscale fold into one affine colour map, applied as a
third matmul before the clamp.  `eval_view_dataset` resizes full frames
with the same matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import LabeledDataset
from .ranking import row_blocks

__all__ = [
    "AugmentationPolicy",
    "sample_batch",
    "augment_vector",
    "augment_image",
]

ASPECT_RANGE = (3.0 / 4.0, 4.0 / 3.0)
CROP_ATTEMPTS = 10
LUMA = np.array([0.299, 0.587, 0.114])
_LUMA_SUM = LUMA.sum()


@dataclass
class AugmentationPolicy:
    """Knobs for the stochastic view transforms.

    Vector data uses coordinate dropout, a global scale jitter drawn
    uniformly from ``1 +/- scale_jitter`` and additive Gaussian noise.
    Image data uses random resized crops, horizontal flips, color jitter
    and random grayscale; a crop covers a ``crop_area_min`` to
    ``crop_area_max`` share of its image and is resized to
    ``output_height`` x ``output_width``, or kept at the image's size if
    both are 0.
    """

    # vector fields
    noise_std: float = 0.1
    scale_jitter: float = 0.1
    coordinate_dropout_prob: float = 0.1
    # image fields
    crop_area_min: float = 0.08
    crop_area_max: float = 1.0
    output_height: int = 0
    output_width: int = 0
    flip_prob: float = 0.5
    color_jitter_strength: float = 0.5
    grayscale_prob: float = 0.2

    def __post_init__(self) -> None:
        if not (self.noise_std >= 0 and self.scale_jitter >= 0):
            raise ValueError("noise_std and scale_jitter must be >= 0")
        if not 0.0 <= self.coordinate_dropout_prob < 1.0:
            raise ValueError("coordinate_dropout_prob must lie in [0, 1)")
        if not 0.0 < self.crop_area_min <= self.crop_area_max <= 1.0:
            raise ValueError("crop areas must satisfy 0 < crop_area_min <= crop_area_max <= 1")
        for name, p in (("flip_prob", self.flip_prob), ("grayscale_prob", self.grayscale_prob)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not self.color_jitter_strength >= 0:
            raise ValueError("color_jitter_strength must be >= 0")
        sides = (self.output_height, self.output_width)
        if sides != (0, 0) and min(sides) < 1:
            # named, not echoed: either side may be long
            raise ValueError("output_height and output_width must both be >= 1, or both 0 "
                             "to keep the native size")


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


def _interpolation_matrices(start, size, out: int, length: int, flip=None,
                            K: int | None = None, split: bool = False) -> np.ndarray:
    """Bilinear interpolation matrices, one per span ``[start[i],
    start[i] + size[i])`` of a ``length``-long axis resized to ``out``
    center-aligned samples: (1, n, out, length), or with ``K`` the
    transposed matrices of each run of K spans side by side, (1, n / K,
    length, K * out).  With ``split`` the leading axis has two entries,
    the weights on the low taps and those on the high taps.

    Output sample j sits at position p of its span, clamped to the span:
    its row holds 1 - f on tap floor(p) and f on the next tap, f being
    the fraction of p, so a row at the span's edge puts all its weight
    on the edge tap.  Where ``flip`` is set the rows come in reverse
    order.
    """
    n = len(start)
    j = np.arange(out)
    src = j + 0.5 if flip is None else np.where(flip[:, None], out - 0.5 - j, j + 0.5)
    last = size[:, None] - 1
    pos = np.minimum(np.maximum(src * size[:, None] / out - 0.5, 0.0), last)
    low = pos.astype(np.intp)  # pos >= 0, so truncation is floor
    frac = pos - low
    tap = low + start[:, None]
    i = np.arange(n)[:, None]
    if K is None:  # flat index of m[0, i, j, tap]
        shape, step = (n, out, length), 1
        at = tap + (i * (out * length) + j * length)
    else:  # of m[0, i // K, tap, (i % K) * out + j]
        shape, step = (n // K, length, K * out), K * out
        at = tap * step + ((i // K * (length * K) + i % K) * out + j)
    m = np.zeros((1 + split,) + shape)
    flat = m.reshape(-1)
    # the next tap, unless p sits on the span's last pixel (f == 0 then);
    # written first, so a clamped row keeps its 1
    flat[at + step * (low < last) + split * m[0].size] = frac
    flat[at] = 1 - frac
    return m


def _resize(sources, boxes, out_h: int, out_w: int, flip=None, exact: bool = False) -> np.ndarray:
    """Bilinear resize of crop ``boxes[i] = (top, left, height, width)``
    of ``sources[i // K]`` to (out_h, out_w), for K = len(boxes) / B
    views of each of the B (h, w, c) sources, or of the one box in
    ``boxes`` in every source; a flipped view reads its columns in
    reverse.

    Two batched matmuls, in the order of the per-pixel lerps (along x,
    then along y): the K views' column matrices of a source sit side by
    side, so the horizontal pass is one matmul per source (one in all
    for a shared box), then each view's row matrix meets its channel
    planes.  A matmul may fuse a lerp's second product into its sum;
    ``exact`` runs each pass as one matmul per tap and adds the two, so
    every output is the lerps' rounded sum bit for bit.  Returns float64
    (n, c + 1, out_h * out_w): the channel planes of every view, then a
    plane of ones that carries `_colour_maps`' offset.
    """
    B, h, w, c = sources.shape
    K = max(len(boxes) // B, 1)
    top, left, height, width = np.asarray(boxes).T
    x = np.empty((B, c, h, w))
    x[...] = sources.transpose(0, 3, 1, 2)
    rx = _interpolation_matrices(left, width, out_w, w, flip, K, exact)
    # one product per source, or one for all sources when the box is shared
    cols = np.matmul(x.reshape(rx.shape[1], -1, w), rx)
    del x, rx
    if exact:
        np.add(cols[0], cols[1], out=cols[0])
    cols = cols[0].reshape(B, c, h, K, out_w).transpose(0, 3, 1, 2, 4)
    ry = _interpolation_matrices(top, height, out_h, h, split=exact)
    ry = ry.reshape(1 + exact, -1, K, 1, out_h, h)
    planes = np.empty((B, K, c + 1, out_h, out_w))
    planes[:, :, c] = 1.0
    if exact:
        np.add(*np.matmul(ry, cols), out=planes[:, :, :c])
    else:
        np.matmul(ry[0], cols, out=planes[:, :, :c])
    return planes.reshape(B * K, c + 1, out_h * out_w)


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
    area = draw.uniform(policy.crop_area_min, policy.crop_area_max,
                        size=(n, CROP_ATTEMPTS)) * h * w
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


def _colour_maps(planes: np.ndarray, factors: np.ndarray, gray: np.ndarray) -> np.ndarray:
    """(n, c + 1, c) maps M with ``planes[i].T @ M[i]`` view i jittered.

    Brightness, contrast, saturation and grayscale are linear in the
    pixels, so each view's chain folds into one c x c matrix, stored
    transposed in the first c rows, plus one offset for every channel in
    the last row, which meets `_resize`'s plane of ones.  Brightness
    scales by f_b; contrast scales by f_c about the mean of the
    brightened view; saturation S = f_s I + (1 - f_s) 1 LUMA^T mixes each
    pixel with its luma; grayscale then maps a pixel to its luma, 1
    LUMA^T.  Views with c != 3 take brightness and contrast only: a
    scalar gain and offset.
    """
    n, c = len(planes), planes.shape[1] - 1
    fb, fc, fs = factors.T
    gain = fb * fc
    values = c * planes.shape[2]
    mean = planes[:, :c].reshape(n, values) @ np.ones(values) / values
    offset = (1 - fc) * fb * mean
    maps = np.empty((n, c + 1, c))
    if c == 3:
        s = fs + (1 - fs) * _LUMA_SUM  # S maps a constant pixel v 1 to v s 1
        maps[:, :3] = np.where(gray, 0.0, gain * fs)[:, None, None] * np.eye(3)
        maps[:, :3] += (gain * np.where(gray, s, 1 - fs))[:, None, None] * LUMA[:, None]
        offset *= np.where(gray, s * _LUMA_SUM, s)
    else:
        maps[:, :c] = gain[:, None, None] * np.eye(c)
    maps[:, c] = offset[:, None]
    return maps


def _image_views(sources: np.ndarray, K: int, policy: AugmentationPolicy,
                 draw: np.random.Generator) -> np.ndarray:
    """K stochastic views of each float32 (h, w, c) image in ``sources``,
    all in one pass: draw every view's parameters, resize every crop,
    apply every view's colour map, clamp to [0, 1] and cast to float32."""
    B, h, w, c = sources.shape
    out_h, out_w = (policy.output_height, policy.output_width) if policy.output_height else (h, w)
    p = _draw_image_views(B * K, h, w, policy, draw)
    planes = _resize(sources, p.boxes, out_h, out_w, p.flip)
    views = np.matmul(planes.transpose(0, 2, 1), _colour_maps(planes, p.factors, p.gray))
    del planes
    np.clip(views, 0.0, 1.0, out=views)
    return views.astype(np.float32).reshape(B * K, out_h, out_w, c)


def augment_image(sample, policy: AugmentationPolicy, draw: np.random.Generator) -> np.ndarray:
    """One stochastic view of a channels-last float image in [0, 1].

    Pipeline: random resized crop, bilinear resize, horizontal flip,
    brightness/contrast/saturation jitter, random grayscale, clamp to
    [0, 1].  Saturation and grayscale only touch 3-channel images.  This
    is the one-view case of `sample_batch`'s image pass: the same
    interpolation matrices and colour map, and randomness consumed in the
    order `_draw_image_views` gives.
    """
    img = np.asarray(sample, dtype=np.float32)
    if img.ndim != 3:
        raise ValueError(f"expected an (h, w, c) image, got shape {img.shape}")
    return _image_views(img[None], 1, policy, draw)[0]


def eval_view_dataset(dataset, policy: AugmentationPolicy):
    """Deterministic evaluation-time counterpart of the training views.

    When an image policy resizes its crops, encoder inputs have the
    policy's output geometry rather than the raw sample geometry, so
    evaluation must feed full frames resized the same way (no crop,
    flip, jitter or clamp): `sample_batch`'s interpolation matrices, one
    full-frame pair shared by every image.  Vector datasets and
    size-preserving policies (output 0 x 0) pass through unchanged.
    Images are resized in `row_blocks`, each counting its float64 copy,
    split columns, planes and vertical matmul temporary:
    ``c h w + 2 c h out_w + (c + 1) out_h out_w + 2 c out_h out_w``.
    """
    samples = dataset.samples
    out_h, out_w = policy.output_height, policy.output_width
    if samples.ndim != 4 or not out_h or samples.shape[1:3] == (out_h, out_w):
        return dataset
    n, h, w, c = samples.shape
    resized = np.empty((n, out_h, out_w, c), dtype=np.float32)
    pixels = resized.reshape(n, out_h * out_w, c)
    for a, b in row_blocks(n, c * h * (w + 2 * out_w) + (3 * c + 1) * out_h * out_w):
        planes = _resize(samples[a:b], [[0, 0, h, w]], out_h, out_w, exact=True)
        pixels[a:b] = planes[:, :c].transpose(0, 2, 1)
    return LabeledDataset(samples=resized, labels=dataset.labels,
                          num_classes=dataset.num_classes)


def sample_batch(dataset, B: int, K: int, policy: AugmentationPolicy, seed) -> np.ndarray:
    """Draw B distinct sources and K independently augmented views of
    each, as one (B*K, ...) array; deliberately label-free.

    ``seed`` is an integer or a `numpy.random.SeedSequence`; one generator
    built from it draws the sources, then every view in one batched call:
    `augment_vector` on the B*K picked rows, or for images every view's
    parameters in the order `_draw_image_views` gives (all crop area
    fractions, all log aspects, tops, lefts, flips, jitter factors,
    grayscale flags).  Image sources are cast to float32 after they are
    picked, so a float64 dataset gives the batch of its float32 copy
    without a float32 copy of the whole dataset.  The seed is not
    mutated, so reusing it reproduces the batch.  The views of source b
    fill the K consecutive rows from b*K, the one layout the batch losses
    take.
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
    samples = dataset.samples
    if samples.ndim == 4:
        return _image_views(samples[sources].astype(np.float32, copy=False), K, policy, rng)
    return augment_vector(samples[np.repeat(sources, K)], policy, rng)
