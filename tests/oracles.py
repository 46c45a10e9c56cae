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


def central_diff(fn, x, eps=1e-6):
    """Central finite-difference gradient of a scalar function.

    Perturbs the passed array in place entry by entry (restoring it), so
    closures over `x` itself also work.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for k in range(flat_x.size):
        orig = flat_x[k]
        flat_x[k] = orig + eps
        hi = fn(x)
        flat_x[k] = orig - eps
        lo = fn(x)
        flat_x[k] = orig
        flat_g[k] = (hi - lo) / (2.0 * eps)
    return grad


def max_rel_err(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-12)
    return float(np.max(np.abs(analytic - numeric)) / scale)


def margin_scores(rng, m, margin=1e-2):
    """m distinct scores on a `margin`-spaced grid in [0, 1)."""
    grid = np.arange(int(round(1.0 / margin))) * margin
    return rng.choice(grid, size=m, replace=False)


def random_posneg_mask(rng, m):
    """Boolean mask with at least one positive and one negative."""
    n_pos = int(rng.integers(1, m))
    mask = np.zeros(m, dtype=bool)
    mask[rng.choice(m, size=n_pos, replace=False)] = True
    return mask
