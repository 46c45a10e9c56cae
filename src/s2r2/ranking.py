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

Two row-batched kernels do the work, each for many queries in one pass
of array operations: `_smooth_ap_rows` for the smoothed objective and its
gradient, `_exact_ap_rows` for exact AP.  `exact_ap` and `smooth_ap` call
them with one row.  `mean_exact_ap` (the per-step training diagnostic,
over a similarity matrix) and `retrieval_map` (representation quality,
over features) feed the exact kernel row blocks of at most about
`_BLOCK_ENTRIES` scores, written one after another into one buffer, so
their memory is O(block * n) for n queries, and retrieval never builds
the n x n matrix.  The exact kernel takes each query's positive scores
as a row of a -inf-padded table: the block feeder gathers them through a
per-label member table built once per call, and the kernel ranks each
positive among the positives from the ends of the tie runs in that
table, sorted.

All functions are pure; computation is float64 regardless of input dtype,
and the same inputs give bit-identical results.  Exact AP sums each
query's rank ratios with ``math.fsum``, so it is correctly rounded and
does not depend on how queries are blocked.  With eight or more
positives per query and a smoothed numerator, numpy's pairwise summation
groups the within-positive rank sum differently from a query-by-query
loop, so smoothed values may differ from such a loop in the last ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .similarity import normalize

__all__ = [
    "SmoothingConfig",
    "ApResult",
    "exact_ap",
    "mean_exact_ap",
    "retrieval_map",
    "smooth_ap",
    "smooth_ap_grad",
    "batch_smooth_ap_loss",
    "validate_groups",
]

# SimilarityMatrix entries may drift from perfect symmetry / unit diagonal
# by float32 round-off; anything beyond this is a construction bug.
SIM_TOLERANCE = 1e-6

# Exact AP over many queries runs in row blocks of at most about this many
# scores (128x128 is one block), which bounds its working memory.
_BLOCK_ENTRIES = 2**18


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


def _single_query(scores, is_positive):
    s = _as_scores(scores)
    mask = _as_mask(is_positive, s.shape[0])
    _check_ap_mask(mask)
    return s[None, :], mask[None, :]


def exact_ap(scores, is_positive) -> float:
    """Average precision of the given scores under strict-comparison ranks.

    Equals 1 iff the smallest positive score strictly exceeds the largest
    negative score.  The final mean uses a correctly rounded summation, so
    independent rank-enumeration implementations reproduce the value
    bit-for-bit.
    """
    s, mask = _single_query(scores, is_positive)
    return float(_exact_ap_rows(s.copy(), s[mask][None, :])[0])


def _count_not_above(sorted_rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``count[q, i] = #{j : sorted_rows[q, j] <= values[q, i]}``.

    Rows of ``sorted_rows`` (Q, m) are ascending.  One fixed-step binary
    search serves every row at once, since all rows share the length m:
    about log2(m) passes of gather and compare over the flattened rows,
    in place of a ``searchsorted`` call per row.
    """
    n_rows, m = sorted_rows.shape
    flat = sorted_rows.ravel()
    row_start = np.arange(n_rows)[:, None] * m
    pos = np.broadcast_to(row_start, values.shape).copy()
    width = m
    while width > 1:  # row_start + count lies in [pos, pos + width]
        half = width // 2
        pos += half * (flat[pos + half] <= values)
        width -= half
    return pos - row_start + (flat[pos] <= values)


def _exact_ap_rows(scores: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Exact average precision for Q queries at once.

    Row ``q`` of ``scores`` (Q, m) scores query ``q``'s gallery and row
    ``q`` of ``pos`` (Q, P) holds the scores of its positives, padded
    with -inf where it has fewer than P.  Every row needs a positive, and
    positive scores must be finite; a negative may score -inf, which
    outranks nothing.  Both arrays are sorted in place, row by row; the
    sorted positive table has the padding first and each run of tied
    positives together.  A positive's rank among the positives counts the
    entries after the end of its tie run, found by one reversed running
    minimum; its rank in the gallery comes from `_count_not_above` on the
    sorted row.  Each row's ratios
    are summed with ``math.fsum``, padding as 0.0, so the result is
    correctly rounded whatever the row layout.
    """
    pos.sort(axis=1)
    scores.sort(axis=1)
    real = pos > -np.inf
    n_pos = real.sum(axis=1)
    width = pos.shape[1]
    # the exclusive end of each tie run, marked at the run's last entry
    run_end = np.full(pos.shape, width)
    np.copyto(run_end[:, :-1], np.arange(1, width), where=pos[:, :-1] != pos[:, 1:])
    run_end = np.minimum.accumulate(run_end[:, ::-1], axis=1)[:, ::-1]
    rank_in_pos = 1 + (width - run_end)
    rank_in_all = 1 + (scores.shape[1] - _count_not_above(scores, pos))
    ratio = np.where(real, rank_in_pos / rank_in_all, 0.0)
    return np.array([math.fsum(row.tolist()) for row in ratio]) / n_pos


def _member_table(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(members, code)``: row ``c`` of ``members`` (labels, C) lists the
    items of the c-th smallest label, padded with -1 to the largest class
    size C, and ``code[i]`` is the row of item ``i``'s label.

    Raises `ValueError` unless there are two labels with two items each.
    """
    n = labels.shape[0]
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    first = np.empty(n, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    code_sorted = np.cumsum(first) - 1
    counts = np.bincount(code_sorted)
    if counts.shape[0] < 2:
        raise ValueError("average precision needs two labels (a query must have a negative)")
    if counts.min() < 2:
        raise ValueError(
            "average precision needs >= 2 items per label (a query must have a positive)"
        )
    members = np.full((counts.shape[0], counts.max()), -1)
    members[code_sorted, np.arange(n) - np.flatnonzero(first)[code_sorted]] = order
    code = np.empty_like(code_sorted)
    code[order] = code_sorted
    return members, code


def _mean_exact_ap_by_rows(fill_rows, labels) -> float:
    """Mean exact AP of ``n`` queries, fed to `_exact_ap_rows` in row blocks.

    ``fill_rows(a, b, out)`` writes rows ``a:b`` of the (n, n) score matrix
    into the float64 array ``out`` of shape (b - a, n), a view of one
    buffer allocated per call and reused by every block.  Items sharing
    the query's label are its positives.  Each query's own column is set
    to -inf, so the query never enters its own gallery and its own score
    may be anything.  The items of every label are listed once per call in
    `_member_table`; a block gathers each query's positive scores from
    its label's row in one fancy-indexing pass.  The query's own column
    is among them and holds -inf, and it also stands in for the padding of
    labels smaller than the largest, so every gathered row is the query's
    positives padded with -inf, as `_exact_ap_rows` takes them; the kernel
    then sorts the block in place.  A block holds at most about
    `_BLOCK_ENTRIES` scores, so memory is O(block * n) whatever n.
    """
    n = labels.shape[0]
    members, code = _member_table(labels)
    step = max(1, _BLOCK_ENTRIES // n)
    buffer = np.empty((min(step, n), n))
    aps = np.empty(n)
    for a in range(0, n, step):
        b = min(a + step, n)
        block = buffer[: b - a]
        fill_rows(a, b, block)
        own = (np.arange(b - a), np.arange(a, b))
        block[own] = 0.0
        if not np.all(np.isfinite(block)):
            raise ValueError("scores must be finite off the diagonal")
        block[own] = -np.inf
        cols = members[code[a:b]]
        np.copyto(cols, own[1][:, None], where=cols < 0)
        aps[a:b] = _exact_ap_rows(block, block[own[0][:, None], cols])
    return float(np.mean(aps))


def mean_exact_ap(sim, labels) -> float:
    """Mean `exact_ap` of every row of ``sim`` querying all other items.

    Row ``q`` scores the gallery for query ``q``; items sharing the query's
    label are its positives, and the query never enters its own gallery,
    so the diagonal is ignored.  The rows run through one vectorized
    kernel in blocks of bounded size, and each query's AP is bit-identical
    to `exact_ap` on its gallery.  Used as the in-batch training
    diagnostic; `retrieval_map` feeds the same blocks from features.
    """
    S = np.asarray(sim)
    labels = np.asarray(labels)
    n = labels.shape[0]
    if S.shape != (n, n):
        raise ValueError(f"similarity matrix shape {S.shape} does not match {n} labels")
    return _mean_exact_ap_by_rows(lambda a, b, out: np.copyto(out, S[a:b]), labels)


def retrieval_map(features, labels) -> float:
    """Mean exact AP over all queries; same-label items are the positives.

    Each sample queries the gallery of all other samples, so every class
    must contribute at least 2 samples.  Equals `mean_exact_ap` of the
    cosine-similarity matrix, but its rows are computed block by block
    from the unit features, so memory grows as O(block * n), never n x n.
    """
    unit = normalize(features)
    labels = np.asarray(labels)
    if unit.shape[0] != labels.shape[0]:
        raise ValueError(f"{unit.shape[0]} feature rows do not match {labels.shape[0]} labels")

    def cosine_rows(a: int, b: int, out: np.ndarray) -> None:
        np.matmul(unit[a:b], unit.T, out=out)
        np.clip(out, -1.0, 1.0, out=out)

    return _mean_exact_ap_by_rows(cosine_rows, labels)


def _smooth_ap_rows(scores: np.ndarray, is_pos: np.ndarray, cfg: SmoothingConfig):
    """Smoothed average precision and its score gradient for Q queries at once.

    Row ``q`` of ``scores`` (Q, m) scores query ``q``'s gallery and row
    ``q`` of ``is_pos`` (Q, m) marks its positives; every row has the same
    number P of them.  Every smoothed term is
    ``phi(score[j] - score[pos r])``: one sigmoid over the (Q, P, m)
    differences, with the self terms zeroed, which zeroes their slope
    ``phi'`` as well.  By the quotient rule the coefficient of a term in
    the objective is

        c[r, j] = ( [j positive]/den_r - num_r/den_r**2 ) / P

    (the first part only when the numerator is smoothed), and each pair
    contributes ``c * phi'`` to ``d/d score[j]`` and the negation to
    ``d/d score[pos r]``.  Returns ``ap`` (Q,) and ``grad`` (Q, m).
    """
    n_rows = scores.shape[0]
    pos_idx = np.nonzero(is_pos)[1].reshape(n_rows, -1)
    n_pos = pos_idx.shape[1]
    pos_scores = np.take_along_axis(scores, pos_idx, axis=1)

    phi = scores[:, None, :] - pos_scores[:, :, None]
    phi /= cfg.tau
    # the logistic sigmoid 1 / (1 + exp(-d)) in place; exp overflows to
    # inf for large negative d, which gives the right limit 0
    with np.errstate(over="ignore"):
        np.exp(np.negative(phi, out=phi), out=phi)
    phi += 1.0
    np.divide(1.0, phi, out=phi)
    np.put_along_axis(phi, pos_idx[:, :, None], 0.0, axis=2)

    den = 1.0 + phi.sum(axis=2)
    if cfg.smooth_numerator:
        num = 1.0 + np.take_along_axis(phi, pos_idx[:, None, :], axis=2).sum(axis=2)
    else:
        num = 1.0 + (pos_scores[:, None, :] > pos_scores[:, :, None]).sum(axis=2)
    ap = np.mean(num / den, axis=1)

    pair = 1.0 - phi
    pair *= phi
    pair /= cfg.tau
    del phi  # at most two (Q, P, m) tables are alive at once
    coeff = -(num / den**2)[:, :, None]
    if cfg.smooth_numerator:
        coeff = np.where(is_pos[:, None, :], coeff + (1.0 / den)[:, :, None], coeff)
    pair *= coeff
    pair /= n_pos

    grad = pair.sum(axis=1)
    grad[np.arange(n_rows)[:, None], pos_idx] -= pair.sum(axis=2)
    return ap, grad


def smooth_ap(scores, is_positive, cfg: SmoothingConfig) -> float:
    """Differentiable average precision with sigmoid-relaxed ranks."""
    return float(_smooth_ap_rows(*_single_query(scores, is_positive), cfg)[0][0])


def smooth_ap_grad(scores, is_positive, cfg: SmoothingConfig) -> np.ndarray:
    """Analytic gradient of `smooth_ap` with respect to every score."""
    return _smooth_ap_rows(*_single_query(scores, is_positive), cfg)[1][0]


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

    off = ~np.eye(n, dtype=bool)
    same = groups[:, None] == groups[None, :]
    per_query, grad_rows = _smooth_ap_rows(
        S[off].reshape(n, n - 1), same[off].reshape(n, n - 1), cfg
    )
    grad = np.zeros((n, n))
    grad[off] = (-grad_rows / n).ravel()
    loss = 1.0 - float(np.mean(per_query))
    return ApResult(per_query_ap=per_query, loss=loss, grad_wrt_similarities=grad)
