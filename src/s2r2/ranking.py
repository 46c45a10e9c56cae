"""Exact and temperature-smoothed ranking average precision.

For a single query, every retrievable item carries a similarity score.
The rank of item ``i`` within a set ``X`` is

    rank(i, X) = 1 + #{ j in X, j != i : score[j] > score[i] }

with a strict comparison, so ties never worsen a rank.  With positives
``P`` inside the full gallery ``I``, average precision is

    ap = (1 / |P|) * sum_{i in P} rank(i, P) / rank(i, I)

which equals 1 exactly when every positive strictly outranks every
negative.  The exact form is a step function of the scores; replacing the
indicator with the sigmoid

    phi(d; tau) = 1 / (1 + exp(-d / tau))

yields a smooth rank, a differentiable objective (`smooth_ap`) and an
analytic gradient (`smooth_ap_grad`).  `batch_smooth_ap_loss` turns a
multi-view similarity matrix into the training loss ``1 - mean(ap)``,
using every view once as the query.

All functions are pure; computation is float64 regardless of input dtype.
Queries of a batch are reduced sequentially in index order, so repeated
evaluation of the same inputs is bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

__all__ = [
    "SmoothingConfig",
    "ApResult",
    "exact_ap",
    "mean_exact_ap",
    "smooth_ap",
    "smooth_ap_grad",
    "batch_smooth_ap_loss",
    "validate_groups",
]

# SimilarityMatrix entries may drift from perfect symmetry / unit diagonal
# by float32 round-off; anything beyond this is a construction bug.
SIM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class SmoothingConfig:
    """Temperature and placement of the rank sigmoid.

    tau : temperature of ``phi``; smaller values track the exact rank more
        closely at the price of vanishing gradients.
    smooth_numerator : when False the within-positive rank keeps its exact
        integer value and only the full-gallery rank is smoothed.
    """

    tau: float = 0.01
    smooth_numerator: bool = True

    def __post_init__(self) -> None:
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau!r}")


@dataclass
class ApResult:
    """Per-query average precision, scalar loss and similarity gradient."""

    per_query_ap: np.ndarray
    loss: float
    grad_wrt_similarities: np.ndarray


def _as_scores(scores) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.shape[0] < 1:
        raise ValueError(f"scores must be a non-empty 1-d array, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    return s


def _as_mask(mask, m: int) -> np.ndarray:
    b = np.asarray(mask)
    if b.shape != (m,):
        raise ValueError(f"mask shape {b.shape} does not match {m} scores")
    return b.astype(bool)


def _check_ap_mask(mask: np.ndarray) -> None:
    n_pos = int(np.count_nonzero(mask))
    if n_pos == 0:
        raise ValueError("average precision needs at least one positive item")
    if n_pos == mask.shape[0]:
        raise ValueError("average precision needs at least one negative item")


def exact_ap(scores, is_positive) -> float:
    """Average precision of the given scores under strict-comparison ranks.

    Equals 1 iff the smallest positive score strictly exceeds the largest
    negative score.  The final mean uses a correctly rounded summation, so
    independent rank-enumeration implementations reproduce the value
    bit-for-bit.
    """
    s = _as_scores(scores)
    mask = _as_mask(is_positive, s.shape[0])
    _check_ap_mask(mask)

    pos_scores = s[mask]
    sorted_all = np.sort(s)
    sorted_pos = np.sort(pos_scores)
    m = s.shape[0]
    n_pos = pos_scores.shape[0]
    # strictly-greater counts via right bisection on the sorted arrays
    rank_in_pos = 1 + (n_pos - np.searchsorted(sorted_pos, pos_scores, side="right"))
    rank_in_all = 1 + (m - np.searchsorted(sorted_all, pos_scores, side="right"))
    return math.fsum(rank_in_pos / rank_in_all) / n_pos


def mean_exact_ap(sim, labels) -> float:
    """Mean `exact_ap` of every row of ``sim`` querying all other items.

    Row ``q`` scores the gallery for query ``q``; items sharing the query's
    label are its positives, and the query never enters its own gallery.
    Used both as the in-batch training diagnostic and for retrieval mAP.
    """
    S = np.asarray(sim)
    labels = np.asarray(labels)
    n = labels.shape[0]
    if S.shape != (n, n):
        raise ValueError(f"similarity matrix shape {S.shape} does not match {n} labels")
    gallery = np.ones(n, dtype=bool)
    aps = []
    for q in range(n):
        gallery[q] = False
        aps.append(exact_ap(S[q][gallery], labels[gallery] == labels[q]))
        gallery[q] = True
    return float(np.mean(aps))


def _smooth_terms(s: np.ndarray, mask: np.ndarray, cfg: SmoothingConfig):
    """Per-positive numerator/denominator ranks plus the sigmoid slopes.

    Returns ``(pos_idx, num, den, dphi)`` where ``dphi[r, j]`` is the
    derivative of the sigmoid of ``score[j] - score[pos_idx[r]]`` w.r.t.
    that difference, with the self term zeroed.
    """
    pos_idx = np.flatnonzero(mask)
    n_pos = pos_idx.shape[0]
    rows = np.arange(n_pos)

    d = (s[None, :] - s[pos_idx][:, None]) / cfg.tau
    phi = expit(d)
    phi[rows, pos_idx] = 0.0
    dphi = phi * (1.0 - phi) / cfg.tau
    dphi[rows, pos_idx] = 0.0

    den = 1.0 + phi.sum(axis=1)
    if cfg.smooth_numerator:
        num = 1.0 + phi[:, pos_idx].sum(axis=1)
    else:
        sorted_pos = np.sort(s[pos_idx])
        num = 1.0 + (n_pos - np.searchsorted(sorted_pos, s[pos_idx], side="right"))
    return pos_idx, num, den, dphi


def _ap_and_grad(s: np.ndarray, mask: np.ndarray, cfg: SmoothingConfig):
    """Smoothed average precision and its score gradient, one sigmoid pass.

    Every smoothed term is ``phi(score[j] - score[pos r])``; by the
    quotient rule its coefficient in the objective is

        c[r, j] = ( [j positive]/den_r - num_r/den_r**2 ) / n_pos

    (the first part only when the numerator is smoothed), and each pair
    contributes ``c * phi'`` to ``d/d score[j]`` and the negation to
    ``d/d score[pos r]``.
    """
    pos_idx, num, den, dphi = _smooth_terms(s, mask, cfg)
    n_pos = pos_idx.shape[0]
    ap = float(np.mean(num / den))

    coeff = np.full_like(dphi, 0.0)
    coeff -= (num / den**2)[:, None]
    if cfg.smooth_numerator:
        coeff[:, pos_idx] += (1.0 / den)[:, None]
    pair = coeff * dphi / n_pos

    grad = pair.sum(axis=0)
    grad[pos_idx] -= pair.sum(axis=1)
    return ap, grad


def smooth_ap(scores, is_positive, cfg: SmoothingConfig) -> float:
    """Differentiable average precision with sigmoid-relaxed ranks."""
    s = _as_scores(scores)
    mask = _as_mask(is_positive, s.shape[0])
    _check_ap_mask(mask)
    _, num, den, _ = _smooth_terms(s, mask, cfg)
    return float(np.mean(num / den))


def smooth_ap_grad(scores, is_positive, cfg: SmoothingConfig) -> np.ndarray:
    """Analytic gradient of `smooth_ap` with respect to every score."""
    s = _as_scores(scores)
    mask = _as_mask(is_positive, s.shape[0])
    _check_ap_mask(mask)
    return _ap_and_grad(s, mask, cfg)[1]


def validate_groups(group_of_view) -> tuple[int, int]:
    """Check the view-to-source map and return ``(n_sources, views_each)``.

    Group ids must be exactly ``0 .. B-1``, each appearing the same number
    of times, with at least two sources and two views per source.
    """
    g = np.asarray(group_of_view)
    if g.ndim != 1 or not np.issubdtype(g.dtype, np.integer):
        raise ValueError("group labels must be a 1-d integer array")
    uniq, counts = np.unique(g, return_counts=True)
    n_groups = uniq.shape[0]
    if not np.array_equal(uniq, np.arange(n_groups)):
        raise ValueError("group ids must be contiguous integers starting at 0")
    if np.any(counts != counts[0]):
        raise ValueError("every group must contain the same number of views")
    views_each = int(counts[0])
    if n_groups < 2:
        raise ValueError("need at least two source groups (otherwise no negatives)")
    if views_each < 2:
        raise ValueError("need at least two views per source (otherwise no positives)")
    return n_groups, views_each


def _check_similarity_matrix(sim: np.ndarray, n: int) -> None:
    if sim.shape != (n, n):
        raise ValueError(f"similarity matrix shape {sim.shape} does not match {n} views")
    if not np.all(np.isfinite(sim)):
        raise ValueError("similarity matrix must be finite")
    if np.max(np.abs(sim - sim.T)) > SIM_TOLERANCE:
        raise ValueError("similarity matrix is not symmetric")
    if np.max(np.abs(np.diagonal(sim) - 1.0)) > SIM_TOLERANCE:
        raise ValueError("similarity matrix diagonal must be 1")


def batch_smooth_ap_loss(sim, group_of_view, cfg: SmoothingConfig) -> ApResult:
    """Smoothed-ranking loss of a multi-view batch.

    Each of the ``B*K`` views serves once as the query; the other views of
    its group are the positives and the views of all other groups the
    negatives.  The query itself is excluded from its gallery, so the
    gradient diagonal is exactly zero.

    Returns per-query average precision, ``loss = 1 - mean(ap)`` and the
    gradient of the loss w.r.t. every similarity entry (row ``q`` holds
    query ``q``'s contribution).
    """
    S = np.asarray(sim, dtype=np.float64)
    groups = np.asarray(group_of_view)
    validate_groups(groups)
    n = groups.shape[0]
    _check_similarity_matrix(S, n)

    per_query = np.empty(n)
    grad = np.zeros((n, n))
    all_idx = np.arange(n)
    for q in range(n):
        gallery = np.concatenate([all_idx[:q], all_idx[q + 1 :]])
        scores = S[q, gallery]
        positives = groups[gallery] == groups[q]
        ap_q, grad_q = _ap_and_grad(scores, positives, cfg)
        per_query[q] = ap_q
        grad[q, gallery] = -grad_q / n
    loss = 1.0 - float(np.mean(per_query))
    return ApResult(per_query_ap=per_query, loss=loss, grad_wrt_similarities=grad)
