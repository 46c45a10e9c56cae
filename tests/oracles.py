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


def smooth_ap_reference(scores, positive_mask, tau):
    """Sigmoid-smoothed AP evaluated term by term with scalar math."""
    s = [float(x) for x in scores]
    pos = [j for j, p in enumerate(positive_mask) if p]
    total = 0.0
    for i in pos:
        num = 1.0
        for j in pos:
            if j != i:
                num += _sigmoid((s[j] - s[i]) / tau)
        den = 1.0
        for j in range(len(s)):
            if j != i:
                den += _sigmoid((s[j] - s[i]) / tau)
        total += num / den
    return total / len(pos)


def info_nce_reference(sim, views_each, temperature):
    """Multi-positive InfoNCE by scalar loops: ``(per-view loss, gradient)``.

    View i's positives are the other views of its source (``views_each``
    consecutive rows each); its loss is the log-sum-exp of ``sim[i][j] /
    temperature`` over every j != i minus the mean of ``sim[i][p] /
    temperature`` over its positives p.  The gradient of the mean loss
    with respect to ``sim[i][j]`` is ``(softmax_ij - [j positive] / (K -
    1)) / (temperature * n)``, zero on the diagonal.
    """
    rows = [[float(x) for x in row] for row in sim]
    n, k = len(rows), views_each
    per_view, grad = [], [[0.0] * n for _ in range(n)]
    for i in range(n):
        others = [j for j in range(n) if j != i]
        positives = [j for j in others if j // k == i // k]
        logits = {j: rows[i][j] / temperature for j in others}
        top = max(logits.values())
        norm = math.fsum(math.exp(logits[j] - top) for j in others)
        lse = top + math.log(norm)
        per_view.append(lse - math.fsum(logits[p] for p in positives) / len(positives))
        for j in others:
            target = 1.0 / len(positives) if j in positives else 0.0
            grad[i][j] = (math.exp(logits[j] - lse) - target) / (temperature * n)
    return per_view, grad


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


def table_smooth_ap_rows(scores, is_pos, tau):
    """Smoothed AP and its score gradient by full (Q, P, m) tables.

    Row ``q`` of ``scores`` (Q, m) is query ``q``'s gallery and row ``q``
    of ``is_pos`` marks its positives, the same number in every row.  One
    sigmoid table over every positive-minus-item difference, the self
    terms zeroed, and a coefficient table from the quotient rule, summed
    over each axis.  Returns ``(ap (Q,), grad (Q, m))``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    is_pos = np.asarray(is_pos, dtype=bool)
    n_rows = scores.shape[0]
    pos_idx = np.nonzero(is_pos)[1].reshape(n_rows, -1)
    n_pos = pos_idx.shape[1]
    pos_scores = np.take_along_axis(scores, pos_idx, axis=1)
    phi = 1.0 / (1.0 + np.exp(-(scores[:, None, :] - pos_scores[:, :, None]) / tau))
    np.put_along_axis(phi, pos_idx[:, :, None], 0.0, axis=2)
    den = 1.0 + phi.sum(axis=2)
    num = 1.0 + np.take_along_axis(phi, pos_idx[:, None, :], axis=2).sum(axis=2)
    ap = np.mean(num / den, axis=1)
    coeff = np.broadcast_to(-(num / den**2)[:, :, None], phi.shape)
    coeff = np.where(is_pos[:, None, :], coeff + (1.0 / den)[:, :, None], coeff)
    pair = phi * (1.0 - phi) / tau * coeff / n_pos
    grad = pair.sum(axis=1)
    grad[np.arange(n_rows)[:, None], pos_idx] -= pair.sum(axis=2)
    return ap, grad


def table_batch_smooth_ap(sim, groups, tau):
    """``(per-query AP, loss, gradient)`` of the batch ranking loss, each
    query's gallery being every other view, by `table_smooth_ap_rows`."""
    sim = np.asarray(sim, dtype=np.float64)
    groups = np.asarray(groups)
    n = groups.shape[0]
    off = ~np.eye(n, dtype=bool)
    same = groups[:, None] == groups[None, :]
    ap, grad_rows = table_smooth_ap_rows(sim[off].reshape(n, n - 1),
                                         same[off].reshape(n, n - 1), tau)
    grad = np.zeros((n, n))
    grad[off] = (-grad_rows / n).ravel()
    return ap, 1.0 - float(np.mean(ap)), grad


def reference_he_uniform(layer_shapes, seed, dtype=np.float32):
    """He-uniform weight matrices, one generator draw per layer in order."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(-np.sqrt(6.0 / fan_in), np.sqrt(6.0 / fan_in),
                        size=(fan_in, fan_out)).astype(dtype)
            for fan_in, fan_out in layer_shapes]


def reference_adam_step(tensors, moments1, moments2, grads, t, lr, beta1, beta2, eps):
    """One bias-corrected Adam step at step ``t``, array by array, in place."""
    corr1 = 1.0 - beta1**t
    corr2 = 1.0 - beta2**t
    for p, g, m, v in zip(tensors, grads, moments1, moments2):
        g = np.asarray(g, dtype=p.dtype)
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        p -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)
