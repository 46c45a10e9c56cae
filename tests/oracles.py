"""Independent reference implementations the tests compare against.

Everything here is deliberately written the slow, obvious way (pure
Python loops, exact rational arithmetic, textbook formulas) and shares
no code with the package, so agreement is evidence of correctness
rather than of copying the same bug twice.
"""

import math
from fractions import Fraction

import numpy as np


def brute_ap(scores, positive_indices):
    """Average precision as the mean of rank ratios, ranks enumerated."""
    s = [float(x) for x in scores]
    pos = list(positive_indices)
    terms = []
    for i in pos:
        rank_in_pos = 1 + sum(1 for j in pos if j != i and s[j] > s[i])
        rank_in_all = 1 + sum(1 for j in range(len(s)) if j != i and s[j] > s[i])
        terms.append(rank_in_pos / rank_in_all)
    return math.fsum(terms) / len(pos)


def fraction_ap(scores, positive_indices):
    """Exact rational average precision (no floating point at all)."""
    s = list(scores)
    pos = list(positive_indices)
    total = Fraction(0)
    for i in pos:
        rank_in_pos = 1 + sum(1 for j in pos if j != i and s[j] > s[i])
        rank_in_all = 1 + sum(1 for j in range(len(s)) if j != i and s[j] > s[i])
        total += Fraction(rank_in_pos, rank_in_all)
    return total / len(pos)


def searchsorted_ap(scores, is_positive):
    """Exact AP of one query by sorting and right bisection, one query at a time."""
    s = np.asarray(scores, dtype=np.float64)
    mask = np.asarray(is_positive, dtype=bool)
    pos_scores = s[mask]
    sorted_all = np.sort(s)
    sorted_pos = np.sort(pos_scores)
    m, n_pos = s.shape[0], pos_scores.shape[0]
    # strictly-greater counts via right bisection on the sorted arrays
    rank_in_pos = 1 + (n_pos - np.searchsorted(sorted_pos, pos_scores, side="right"))
    rank_in_all = 1 + (m - np.searchsorted(sorted_all, pos_scores, side="right"))
    return math.fsum(rank_in_pos / rank_in_all) / n_pos


def searchsorted_mean_ap(sim, labels):
    """Mean `searchsorted_ap` of every row of ``sim`` against all other items."""
    sim = np.asarray(sim, dtype=np.float64)
    labels = np.asarray(labels)
    n = labels.shape[0]
    aps = []
    for q in range(n):
        gallery = np.arange(n) != q
        aps.append(searchsorted_ap(sim[q, gallery], labels[gallery] == labels[q]))
    return float(np.mean(aps))


def _sigmoid(d):
    if d >= 0:
        return 1.0 / (1.0 + math.exp(-d))
    e = math.exp(d)
    return e / (1.0 + e)


def smooth_ap_reference(scores, positive_mask, tau, smooth_numerator=True):
    """Sigmoid-smoothed AP evaluated term by term with scalar math."""
    s = [float(x) for x in scores]
    pos = [j for j, p in enumerate(positive_mask) if p]
    total = 0.0
    for i in pos:
        num = 1.0
        if smooth_numerator:
            for j in pos:
                if j != i:
                    num += _sigmoid((s[j] - s[i]) / tau)
        else:
            num = 1 + sum(1 for j in pos if j != i and s[j] > s[i])
        den = 1.0
        for j in range(len(s)):
            if j != i:
                den += _sigmoid((s[j] - s[i]) / tau)
        total += num / den
    return total / len(pos)


def naive_map(features, labels):
    """Retrieval mAP by the cumulative-precision formula (assumes no ties).

    Sorts each query's gallery by descending cosine score and averages
    precision at the positive positions; an entirely different route to
    the same quantity as the rank-ratio definition.
    """
    x = np.asarray(features, dtype=np.float64)
    x = x / np.linalg.norm(x, axis=1, keepdims=True)
    labels = np.asarray(labels)
    n = x.shape[0]
    sims = x @ x.T
    aps = []
    for q in range(n):
        others = np.concatenate([np.arange(q), np.arange(q + 1, n)])
        order = others[np.argsort(-sims[q, others], kind="stable")]
        hits = (labels[order] == labels[q]).astype(np.float64)
        precision_at = np.cumsum(hits) / np.arange(1, n)
        aps.append(np.sum(precision_at * hits) / hits.sum())
    return float(np.mean(aps))


def reference_probe_fit(features, labels, epochs, learning_rate, l2_penalty, seed, num_classes):
    """Softmax-probe fit in row-major (n, classes) layout, one fresh array per step.

    Returns ``(weights (dim, classes), bias (classes,), mean, scale)``;
    predict with ``argmax(((x - mean) / scale) @ weights + bias)``.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    mean = x.mean(axis=0)
    scale = np.maximum(x.std(axis=0), 1e-8)
    z = (x - mean) / scale
    n, dim = z.shape

    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0

    def softmax_rows(logits):
        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        return shifted / shifted.sum(axis=1, keepdims=True)

    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 0.01, size=(dim, num_classes))
    b = np.zeros(num_classes)
    for _ in range(epochs):
        grad_logits = (softmax_rows(z @ w + b) - onehot) / n
        w -= learning_rate * (z.T @ grad_logits + l2_penalty * w)
        b -= learning_rate * grad_logits.sum(axis=0)
    return w, b, mean, scale


def _bilinear_resize(img, out_h, out_w):
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


def reference_crop_size(h, w, area_fracs, log_aspects, aspect_range=(3.0 / 4.0, 4.0 / 3.0)):
    """(height, width, fits) of the crop one view takes from its drawn
    attempts: the first attempt that fits in the h x w image, else the
    largest aspect-clamped center crop (fits is then False)."""
    for frac, log_aspect in zip(area_fracs, log_aspects):
        area = frac * h * w
        aspect = np.exp(log_aspect)
        cw = int(round(np.sqrt(area * aspect)))
        ch = int(round(np.sqrt(area / aspect)))
        if 0 < cw <= w and 0 < ch <= h:
            return ch, cw, True
    ratio = w / h
    if ratio < aspect_range[0]:
        cw, ch = w, min(h, int(round(w / aspect_range[0])))
    elif ratio > aspect_range[1]:
        ch, cw = h, min(w, int(round(h * aspect_range[1])))
    else:
        ch, cw = h, w
    return ch, cw, False


def reference_image_view(img, box, out_size, flip, factors, gray):
    """One image view by the per-view pipeline, given its drawn parameters:
    crop ``box = (top, left, height, width)``, bilinear resize, flip,
    brightness/contrast/saturation ``factors``, grayscale, clamp."""
    img = np.asarray(img, dtype=np.float32)
    top, left, ch, cw = box
    view = _bilinear_resize(img[top : top + ch, left : left + cw], *out_size)
    if flip:
        view = view[:, ::-1]
    fb, fc, fs = factors
    view = view * fb
    mean = view.mean()
    view = (view - mean) * fc + mean
    if img.shape[2] == 3:
        luma = np.array([0.299, 0.587, 0.114], dtype=view.dtype)
        lum = view @ luma
        view = (view - lum[..., None]) * fs + lum[..., None]
        if gray:
            lum = view @ luma
            view = np.repeat(lum[..., None], 3, axis=2)
    return np.clip(view, 0.0, 1.0).astype(np.float32)


def reference_eval_frames(samples, out_size):
    """Every full frame resized image by image, as float32."""
    return np.stack([
        _bilinear_resize(np.asarray(img, dtype=np.float64), *out_size) for img in samples
    ]).astype(np.float32)
