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

Every exact AP is counted by one kernel, `_exact_ap_rows`, which sorts
each query's gallery and positives and finds every positive's ranks by
binary search.  It serves `exact_ap`, `retrieval_map` (representation
quality, over features, fed in row blocks of a bounded size, so the
n x n matrix is never built), `mean_exact_ap` (for a batch trained by
another loss) and the loss pass, which returns the exact AP of its own
scores.  `smooth_ap` and `smooth_ap_grad` run `_smooth_ap_rows`, the one
smoothed-AP kernel, on one row, and `batch_smooth_ap_loss` on row blocks
of the full similarity matrix: from one (rows, P, n) table of
positive-minus-item differences, and its (rows, P, P) part among the
positives, it returns the smoothed AP and its gradient.  The batch
entries take the scores from `_batch_scores`, which checks the matrix
and blanks its diagonal.  A batch is the one layout `sample_batch`
draws, B sources whose K views fill K consecutive rows, so the losses
take K alone (`batch_sources` checks it against the matrix) and
`_batch_layout` places each query's positives in closed form from B
and K.

All functions are pure (`_batch_layout` keeps the read-only indices of a
few batch shapes in an ``lru_cache``); computation is float64 regardless
of input dtype, and the same inputs give bit-identical results.  Exact
AP sums each query's rank ratios with ``math.fsum``, so it is correctly
rounded and depends neither on the order of the positives nor on how
queries are blocked.  Smoothed AP sums each query's
sigmoid row in gallery order with numpy's pairwise summation, and the
gradient sums over the positives in one matrix product per row.  A batch
row holds the query's own column as an exact zero, so its smoothed AP
and gradient may differ in the last ulp from `smooth_ap` and
`smooth_ap_grad` on the same gallery without that column; blocking never
changes a bit.
"""

from __future__ import annotations

import functools
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
    "batch_sources",
]

# SimilarityMatrix entries may drift from perfect symmetry / unit diagonal
# by float32 round-off; anything beyond this is a construction bug.
SIM_TOLERANCE = 1e-6

# Retrieval runs its exact AP in row blocks of at most about this many
# entries, which bounds its working memory: each row counts its n scores
# and _P_TABLES work tables as wide as the largest label.
_BLOCK_ENTRIES = 2**18
_P_TABLES = 8

# The batch loss runs its (rows, P, n) tables in blocks of at most this
# many entries (B=16, K=8 is one block).
_TABLE_ENTRIES = 2**17


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
    """Per-query smoothed average precision, scalar loss, similarity
    gradient, and the per-query exact AP of the same scores."""

    per_query_ap: np.ndarray
    loss: float
    grad_wrt_similarities: np.ndarray
    exact_ap: np.ndarray


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
    in place of a ``searchsorted`` call per row.  Each pass reuses the
    same three work tables of ``values``' shape.
    """
    n_rows, m = sorted_rows.shape
    flat = sorted_rows.ravel()
    row_start = np.arange(n_rows)[:, None] * m
    pos = np.broadcast_to(row_start, values.shape).copy()
    probe = np.empty_like(pos)
    found = np.empty(values.shape)
    below = np.empty(values.shape, dtype=bool)
    width = m
    # every probe stays inside its row, so mode="clip" only skips the bounds check
    while width > 1:  # row_start + count lies in [pos, pos + width]
        half = width // 2
        np.add(pos, half, out=probe)
        np.less_equal(np.take(flat, probe, out=found, mode="clip"), values, out=below)
        pos += np.multiply(below, half, out=probe)
        width -= half
    np.less_equal(np.take(flat, pos, out=found, mode="clip"), values, out=below)
    pos -= row_start
    pos += below
    return pos


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
    sorted row.  Padding gets rank 0 among the positives, so its ratio is
    0, and ``math.fsum`` sums each row's ratios.
    """
    pos.sort(axis=1)
    scores.sort(axis=1)
    real = pos > -np.inf
    width = pos.shape[1]
    # the exclusive end of each tie run, marked at the run's last entry
    run_end = np.full(pos.shape, width)
    np.copyto(run_end[:, :-1], np.arange(1, width), where=pos[:, :-1] != pos[:, 1:])
    rank_in_pos = np.minimum.accumulate(run_end[:, ::-1], axis=1)[:, ::-1]
    del run_end
    np.subtract(width + 1, rank_in_pos, out=rank_in_pos)
    rank_in_pos *= real
    rank_in_all = _count_not_above(scores, pos)
    np.subtract(scores.shape[1] + 1, rank_in_all, out=rank_in_all)
    ratio = rank_in_pos / rank_in_all
    return np.array([math.fsum(row.tolist()) for row in ratio]) / real.sum(axis=1)


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


def retrieval_map(features, labels) -> float:
    """Mean exact AP over all queries; same-label items are the positives.

    Each sample queries the gallery of all other samples, so every class
    must contribute at least 2 samples.  The cosine similarities of the
    unit features are computed in row blocks of one buffer, so memory
    grows as O(block * n), never n x n.  A block of r rows holds r * n
    scores and about `_P_TABLES` work tables of r * C entries, for the
    largest class size C, and r is the most rows that keep their sum
    within `_BLOCK_ENTRIES`.  Each query's own column is set to -inf, so
    the query never enters its own gallery; the row of `_member_table`
    for its label gives its positives' columns, with its own column in
    place of the padding, so every gathered row is the query's positive
    scores padded with -inf, as `_exact_ap_rows` takes them.  Raises
    `ValueError` unless ``features`` is 2-d with one finite, nonzero row
    per label of a 1-d ``labels``.
    """
    features, labels = np.asarray(features), np.asarray(labels)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-d, got shape {features.shape}")
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-d, got shape {labels.shape}")
    unit = normalize(features)
    n = labels.shape[0]
    if unit.shape[0] != n:
        raise ValueError(f"{unit.shape[0]} feature rows do not match {n} labels")
    members, code = _member_table(labels)
    step = max(1, _BLOCK_ENTRIES // (n + _P_TABLES * members.shape[1]))
    buffer = np.empty((min(step, n), n))
    aps = np.empty(n)
    for a in range(0, n, step):
        b = min(a + step, n)
        block = np.matmul(unit[a:b], unit.T, out=buffer[: b - a])
        np.clip(block, -1.0, 1.0, out=block)
        own = (np.arange(b - a), np.arange(a, b))
        block[own] = -np.inf
        cols = members[code[a:b]]
        np.copyto(cols, own[1][:, None], where=cols < 0)
        pos = block[own[0][:, None], cols]
        del cols  # one (rows, C) table fewer while the kernel runs
        aps[a:b] = _exact_ap_rows(block, pos)
    return float(np.mean(aps))


def _positive_layout(pos_idx: np.ndarray, m: int, step: int):
    """Flat indices that a block of at most ``step`` rows needs.

    ``pos_idx`` (Q, P) lists each query's positive columns in a gallery
    of m.  Row ``q`` sits at row ``q % step`` of its block, and indices
    are local to the block: ``pos_flat[q, r]`` is positive r in the
    (rows, m) score block and ``own[q, r]`` is entry (r, pos r) of the
    (rows, P, m) table.
    """
    n_pos = pos_idx.shape[1]
    local = (np.arange(pos_idx.shape[0]) % step)[:, None]
    return local * m + pos_idx, (local * n_pos + np.arange(n_pos)) * m + pos_idx


def _sigmoid_of_differences(table: np.ndarray, tau: float) -> None:
    """Turn entries ``pos - score`` into ``phi(score - pos)``, in place."""
    table /= tau
    # 1 / (1 + exp(-d)) for d = (score - pos) / tau; exp overflows to inf
    # for large negative d, which gives the right limit 0
    with np.errstate(over="ignore"):
        np.exp(table, out=table)
    table += 1.0
    np.reciprocal(table, out=table)


def _smooth_ap_rows(scores: np.ndarray, pos_flat, own, cfg: SmoothingConfig, work):
    """Smoothed AP and its score gradient for Q queries at once.

    Row ``q`` of ``scores`` (Q, m) scores query ``q``'s gallery, and the
    flat indices from `_positive_layout` place its P positives.  A score
    of -inf marks an item outside the gallery (the query itself), which
    drops out of every term.  ``work`` holds two (Q, P, m) float64 tables.

    The first table is ``pos - score`` for every positive and item, and a
    (Q, P, P) table holds the same differences among the positives; an
    exact numerator counts the negative ones among the positives as their
    integer ranks.  In place, both become ``phi(score - pos)``, with each
    positive's own entry zeroed, and later the slopes ``phi * (1 - phi)``.  By the
    quotient rule, with the ``1/P`` mean and the ``1/tau`` of the slope
    folded in, ``alpha_r = -num_r / (den_r**2 tau P)`` weighs every term
    of positive r and ``beta_r = 1 / (den_r tau P)`` its terms on
    positives (a smoothed numerator only).  Each term adds its weighted
    slope to ``d/d score[j]`` and takes it from ``d/d score[pos r]``.
    Returns ``ap`` (Q,) and ``grad`` (Q, m).
    """
    n_rows, m = scores.shape
    n_pos = pos_flat.shape[1]
    pos_scores = scores.reshape(-1)[pos_flat]
    table, spare = work
    np.subtract(pos_scores[:, :, None], scores[:, None, :], out=table)
    among = np.subtract(pos_scores[:, :, None], pos_scores[:, None, :])
    _sigmoid_of_differences(table, cfg.tau)
    table.reshape(-1)[own] = 0.0
    den = 1.0 + table.sum(axis=2)
    if cfg.smooth_numerator:
        _sigmoid_of_differences(among, cfg.tau)
        diag = np.arange(n_pos)
        among[:, diag, diag] = 0.0
        num = 1.0 + among.sum(axis=2)
    else:
        # int32 sums of booleans run about twice as fast as the default int64
        num = 1 + (among < 0).sum(axis=2, dtype=np.int32)
    ratio = num / den
    ap = np.mean(ratio, axis=1)

    table *= np.subtract(1.0, table, out=spare)
    scale = 1.0 / (cfg.tau * n_pos)
    alpha = ratio / den
    alpha *= -scale
    grad = np.matmul(alpha[:, None, :], table).reshape(-1)
    pos_grad = alpha * table.sum(axis=2)
    if cfg.smooth_numerator:
        among *= 1.0 - among
        beta = scale / den
        pos_grad += beta * among.sum(axis=2)
        pos_grad = np.matmul(beta[:, None, :], among)[:, 0, :] - pos_grad
    else:
        np.negative(pos_grad, out=pos_grad)
    grad[pos_flat] += pos_grad
    return ap, grad.reshape(n_rows, m)


def _single_query_rows(scores, is_positive, cfg: SmoothingConfig):
    s, mask = _single_query(scores, is_positive)
    pos_idx = np.nonzero(mask)[1][None, :]
    return _smooth_ap_rows(s, *_positive_layout(pos_idx, s.shape[1], 1), cfg,
                           np.empty((2, 1, pos_idx.shape[1], s.shape[1])))


def smooth_ap(scores, is_positive, cfg: SmoothingConfig) -> float:
    """Differentiable average precision with sigmoid-relaxed ranks."""
    return float(_single_query_rows(scores, is_positive, cfg)[0][0])


def smooth_ap_grad(scores, is_positive, cfg: SmoothingConfig) -> np.ndarray:
    """Analytic gradient of `smooth_ap` with respect to every score."""
    return _single_query_rows(scores, is_positive, cfg)[1][0]


def batch_sources(n_views: int, views_each) -> int:
    """The number B of sources in a batch of ``n_views`` views, K each.

    Raises `ValueError` unless ``views_each`` is an integer K >= 2 (so
    every view has a positive) that splits ``n_views`` into B >= 2
    sources (so every view has a negative).
    """
    if isinstance(views_each, (int, np.integer)) and views_each >= 2:
        n_sources, rest = divmod(n_views, int(views_each))
        if rest == 0 and n_sources >= 2:
            return n_sources
    raise ValueError(f"{n_views} views must split into B >= 2 sources (so every view has a "
                     f"negative) of an integer K >= 2 views each (so every view has a "
                     f"positive), got K = {views_each!r}")


@functools.lru_cache(maxsize=8)
def _batch_layout(n_sources: int, views_each: int, step_entries: int):
    """``(step, pos_flat, own)`` of B sources whose K views fill
    consecutive rows.

    Query q's positives are the other views of its source, in ascending
    columns ``q - q % K + r + (r >= q % K)`` for r in 0 .. K-2; ``step``
    is the most rows whose tables fit in ``step_entries``, and the flat
    indices of `_positive_layout` are read-only, since the cache shares
    them between calls.
    """
    n = n_sources * views_each
    query = np.arange(n)[:, None]
    r = np.arange(views_each - 1)
    offset = query % views_each
    pos_idx = query - offset + r + (r >= offset)
    step = max(1, step_entries // ((views_each - 1) * n))
    layout = (step, *_positive_layout(pos_idx, n, step))
    for index in layout[1:]:
        index.setflags(write=False)
    return layout


def _batch_scores(sim, views_each):
    """``(scores, layout)`` of a batch: a checked float64 copy of ``sim``
    with -inf on its diagonal, so no query enters its own gallery, and
    the `_batch_layout` of its sources' K = ``views_each`` views.

    Raises `ValueError` unless ``sim`` is a finite (n, n) matrix,
    symmetric with a unit diagonal within `SIM_TOLERANCE`, whose n views
    `batch_sources` splits by K.
    """
    S = np.asarray(sim, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"similarity matrix must be square, got shape {S.shape}")
    layout = _batch_layout(batch_sources(S.shape[0], views_each), views_each, _TABLE_ENTRIES)
    if not np.all(np.isfinite(S)):
        raise ValueError("similarity matrix must be finite")
    # S.T - S is antisymmetric entry for entry, so its max is its max |.|;
    # copying the transpose first keeps the subtraction contiguous
    scores = np.copy(S.T, order="C")
    if np.max(np.subtract(scores, S, out=scores)) > SIM_TOLERANCE:
        raise ValueError("similarity matrix is not symmetric")
    if np.max(np.abs(np.diagonal(S) - 1.0)) > SIM_TOLERANCE:
        raise ValueError("similarity matrix diagonal must be 1")
    np.copyto(scores, S)
    np.fill_diagonal(scores, -np.inf)
    return scores, layout


def mean_exact_ap(sim, views_each) -> float:
    """Mean exact AP of a multi-view batch, each view once the query.

    The other ``views_each - 1`` views of the query's source are its
    positives, as in `batch_smooth_ap_loss`, which checks the same inputs
    and whose ``exact_ap`` this averages bit for bit; it serves a batch
    trained by another loss.  All queries run through one `_exact_ap_rows`
    call on the scores of `_batch_scores`.
    """
    scores, _ = _batch_scores(sim, views_each)
    n = scores.shape[0]
    n_sources = n // views_each
    src = np.arange(n_sources)
    # each query's row of its source's K x K diagonal block: its positives,
    # with its own -inf as the padding that _exact_ap_rows skips
    pos = scores.reshape(n_sources, views_each, n_sources, views_each)[src, :, src]
    return float(np.mean(_exact_ap_rows(scores, pos.reshape(n, views_each))))


def batch_smooth_ap_loss(sim, views_each, cfg: SmoothingConfig) -> ApResult:
    """Smoothed-ranking loss of a multi-view batch.

    Each of the ``B*K`` views serves once as the query; the other views of
    its source (K = ``views_each`` consecutive rows) are the positives and
    the views of all other sources the negatives.  The query itself is
    excluded from its gallery, so the gradient diagonal is exactly zero.

    Returns per-query smoothed and exact average precision, ``loss = 1 -
    mean(ap)`` and the gradient of the loss w.r.t. every similarity entry
    (row ``q`` holds query ``q``'s contribution).  The queries run through
    `_smooth_ap_rows` and `_exact_ap_rows` in blocks of at most about
    `_TABLE_ENTRIES` table entries, on the scores of `_batch_scores`.
    """
    scores, (step, pos_flat, own) = _batch_scores(sim, views_each)
    n = scores.shape[0]
    work = np.empty((2, min(step, n), pos_flat.shape[1], n))
    per_query, exact, grad = np.empty(n), np.empty(n), np.empty((n, n))
    for a in range(0, n, step):
        b = min(a + step, n)
        block = scores[a:b]
        per_query[a:b], grad[a:b] = _smooth_ap_rows(block, pos_flat[a:b], own[a:b], cfg,
                                                    work[:, : b - a])
        # _exact_ap_rows sorts in place, so it sorts a copy in the spare table
        ranked = work[1].reshape(-1)[: block.size].reshape(block.shape)
        np.copyto(ranked, block)
        exact[a:b] = _exact_ap_rows(ranked, block.reshape(-1)[pos_flat[a:b]])
    grad /= -n
    loss = 1.0 - float(np.mean(per_query))
    return ApResult(per_query_ap=per_query, loss=loss, grad_wrt_similarities=grad,
                    exact_ap=exact)
