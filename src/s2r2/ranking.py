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
quality, over features, never building the n x n matrix) and both batch
losses, which return the exact AP of their own scores.  `smooth_ap` and
`smooth_ap_grad` run `_smooth_ap_rows`, the one smoothed-AP kernel, on
one row, and `batch_smooth_ap_loss` on row blocks of the full similarity
matrix: from one (rows, P, n) table of sigmoids of positive-minus-item
differences, whose columns at the positives hold the block among them,
it returns the smoothed AP and its gradient.  Both batch losses open
with one call of `_checked_batch`, which checks the matrix (square,
split by K, finite, symmetric, unit diagonal), blanks the diagonal of
its float64 copy and gathers the positives' scores, so both refuse a bad
matrix with the same text.  `info_nce_loss`, the contrastive baseline,
divides those scores into its logits and hands them to the same exact-AP
kernel when its exact AP is read.  A batch is the one layout
`sample_batch` draws, B sources whose K views fill K consecutive rows,
so the losses take K alone (`batch_sources` checks it against the
matrix).  `batch_positives` is the one place that knows where a query's
positives sit: it lists their columns in closed form from B and K, and
both AP kernels, and InfoNCE, read a batch's positives by (row, column)
from it.

Every blocked loop sizes its blocks by one budget, `BLOCK_ENTRIES`
float64 entries, through `row_blocks`, counting all that a row holds:
``n + 8 C`` in `retrieval_map`, ``2 (K - 1) n`` in `batch_smooth_ap_loss`
and each image's buffers in `views.eval_view_dataset`.  So a blocked
stage holds at most ``8 * BLOCK_ENTRIES`` bytes besides its inputs and
outputs.

All functions are pure; computation is float64 regardless of input
dtype, and the same inputs give bit-identical results.  Exact AP sums
each query's rank ratios with ``math.fsum``, so it is correctly rounded
and depends neither on the order of the positives nor on how queries
are blocked.  Smoothed AP sums each query's sigmoid row in gallery
order with numpy's pairwise summation, and the gradient sums over the
positives in one matrix product per row.  A batch row holds the
query's own column as an exact zero, so its smoothed AP and gradient
may differ in the last ulp from `smooth_ap` and `smooth_ap_grad` on the
same gallery without that column; blocking never changes a bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .similarity import normalize

__all__ = [
    "SmoothingConfig",
    "ApResult",
    "ContrastiveConfig",
    "ContrastiveResult",
    "exact_ap",
    "retrieval_map",
    "smooth_ap",
    "smooth_ap_grad",
    "batch_smooth_ap_loss",
    "info_nce_loss",
    "batch_sources",
    "batch_positives",
]

# SimilarityMatrix entries may drift from perfect symmetry / unit diagonal
# by float32 round-off; anything beyond this is a construction bug.
SIM_TOLERANCE = 1e-6

BLOCK_ENTRIES = 2**18  # float64 entries of all a block holds; `row_blocks` reads it per call


@dataclass(frozen=True)
class SmoothingConfig:
    """Temperature and placement of the rank sigmoid.

    tau : temperature of ``phi``, which smooths both ranks, among the
        positives and in the full gallery; smaller values track the exact
        rank more closely at the price of vanishing gradients; at least the
        smallest normal float, so a cosine difference over tau stays finite.
    """

    tau: float = 0.01

    def __post_init__(self) -> None:
        if not self.tau >= sys.float_info.min:
            raise ValueError(f"tau must be a normal float >= {sys.float_info.min!r}, "
                             f"got {self.tau!r}")


@dataclass
class ApResult:
    """Per-query smoothed average precision, scalar loss, similarity
    gradient, and the per-query exact AP of the same scores."""

    per_query_ap: np.ndarray
    loss: float
    grad_wrt_similarities: np.ndarray
    exact_ap: np.ndarray


@dataclass(frozen=True)
class ContrastiveConfig:
    """Softmax temperature of the InfoNCE loss."""

    temperature: float = 0.5

    def __post_init__(self) -> None:
        if not self.temperature > 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")


@dataclass
class ContrastiveResult:
    """Per-view InfoNCE loss, scalar loss, similarity gradient, and the
    per-view exact AP of the same scores, ranked on its first read."""

    per_view_loss: np.ndarray  # (n,) mean cross-entropy of each view's positives
    loss: float
    grad_wrt_similarities: np.ndarray  # (n, n) d loss / d sim, zero diagonal
    _ranked: tuple  # the (scores, positives) that `exact_ap` ranks

    @cached_property
    def exact_ap(self) -> np.ndarray:
        return _exact_ap_rows(*self._ranked)


def _single_query(scores, is_positive):
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.shape[0] < 1:
        raise ValueError(f"scores must be a non-empty 1-d array, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    mask = np.asarray(is_positive)
    if mask.shape != s.shape:
        raise ValueError(f"mask shape {mask.shape} does not match {s.shape[0]} scores")
    mask = mask.astype(bool)
    n_pos = int(np.count_nonzero(mask))
    if n_pos == 0:
        raise ValueError("average precision needs at least one positive item")
    if n_pos == mask.shape[0]:
        raise ValueError("average precision needs at least one negative item")
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


def row_blocks(n_rows: int, row_entries: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of consecutive blocks of ``n_rows`` rows, each the
    most rows (at least one) of ``row_entries`` that `BLOCK_ENTRIES` holds."""
    step = max(1, BLOCK_ENTRIES // row_entries)
    return [(a, min(a + step, n_rows)) for a in range(0, n_rows, step)]


def retrieval_map(features, labels) -> float:
    """Mean exact AP over all queries; same-label items are the positives.

    Each sample queries the gallery of all other samples, so every class
    must contribute at least 2 samples.  The cosine similarities of the
    unit features are computed in `row_blocks` of one buffer, a row
    counting its n scores and 8 work tables as wide as the largest class
    size C, so memory grows as O(block * n), never n x n.  Each query's
    own column is set to -inf, so the query never enters its own gallery;
    the row of `_member_table` for its label gives its positives'
    columns, with its own column in place of the padding, so every
    gathered row is the query's positive scores padded with -inf, as
    `_exact_ap_rows` takes them.  Raises `ValueError` unless ``features``
    is 2-d with one finite, nonzero row per label of a 1-d ``labels``.
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
    blocks = row_blocks(n, n + 8 * members.shape[1])
    buffer = np.empty((blocks[0][1], n))
    aps = np.empty(n)
    for a, b in blocks:
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


def _smooth_ap_rows(scores: np.ndarray, pos_idx: np.ndarray, pos_scores: np.ndarray,
                    cfg: SmoothingConfig, table: np.ndarray):
    """Smoothed AP and its score gradient for Q queries at once.

    Row ``q`` of ``scores`` (Q, m) scores query ``q``'s gallery, row ``q``
    of ``pos_idx`` (Q, P) holds the distinct columns of its P positives,
    and row ``q`` of ``pos_scores`` their scores.  A score of -inf marks an
    item outside the gallery (the query itself), which drops out of every
    term.  ``table`` is a (Q, P, m) float64 work table, and the slopes
    take one temporary of its size.

    The table is ``pos - score`` for every positive and item; in place it
    becomes ``phi(score - pos)``, with each positive's own entry zeroed,
    and later the slopes ``phi * (1 - phi)``.  The (Q, P, P) block among
    the positives, and then its slopes, are gathered from the table at the
    positives' columns, whose own entries are the zeroed diagonal.  By the
    quotient rule, with the ``1/P`` mean and the ``1/tau`` of the slope
    folded in, ``alpha_r = -num_r / (den_r**2 tau P)`` weighs every term
    of positive r and ``beta_r = 1 / (den_r tau P)`` its terms on
    positives.  Each term adds its weighted slope to ``d/d score[j]`` and
    takes it from ``d/d score[pos r]``.
    Returns ``ap`` (Q,) and ``grad`` (Q, m).
    """
    n_pos = pos_idx.shape[1]
    rows = np.arange(scores.shape[0])[:, None]
    among = (rows[:, :, None], np.arange(n_pos)[:, None], pos_idx[:, None, :])
    np.subtract(pos_scores[:, :, None], scores[:, None, :], out=table)
    table /= cfg.tau
    # 1 / (1 + exp(-d)) for d = (score - pos) / tau; exp overflows to inf
    # for large negative d, which gives the right limit 0
    with np.errstate(over="ignore"):
        np.exp(table, out=table)
    table += 1.0
    np.reciprocal(table, out=table)
    table[rows, np.arange(n_pos), pos_idx] = 0.0
    den = 1.0 + table.sum(axis=2)
    num = 1.0 + table[among].sum(axis=2)
    ratio = num / den
    ap = np.mean(ratio, axis=1)

    table *= 1.0 - table
    scale = 1.0 / (cfg.tau * n_pos)
    alpha = ratio / den
    alpha *= -scale
    grad = np.matmul(alpha[:, None, :], table)[:, 0]
    pos_grad = alpha * table.sum(axis=2)
    slopes = table[among]
    beta = scale / den
    pos_grad += beta * slopes.sum(axis=2)
    pos_grad = np.matmul(beta[:, None, :], slopes)[:, 0, :] - pos_grad
    grad[rows, pos_idx] += pos_grad
    return ap, grad


def _single_query_rows(scores, is_positive, cfg: SmoothingConfig):
    s, mask = _single_query(scores, is_positive)
    pos_idx = np.nonzero(mask)[1][None, :]
    return _smooth_ap_rows(s, pos_idx, s[mask][None, :], cfg,
                           np.empty((1, pos_idx.shape[1], s.shape[1])))


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


def batch_positives(n_sources: int, views_each: int) -> np.ndarray:
    """The (B·K, K-1) column indices of each query's positives in a batch
    of B sources whose K views fill consecutive rows.

    Query q's positives are the other views of its source, in ascending
    columns ``q - q % K + r + (r >= q % K)`` for r in 0 .. K-2.
    """
    query = np.arange(n_sources * views_each)[:, None]
    r = np.arange(views_each - 1)
    offset = query % views_each
    return query - offset + r + (r >= offset)


def _checked_batch(sim, views_each):
    """``(scores, pos_idx, pos)``, the one checked entry of both batch
    losses: a float64 copy of ``sim`` with -inf on its diagonal, so no
    query enters its own gallery, each query's `batch_positives` columns,
    and its positives' scores, gathered once.

    Raises `ValueError` unless ``sim`` is a finite (n, n) matrix,
    symmetric with a unit diagonal within `SIM_TOLERANCE`, whose n views
    `batch_sources` splits by K = ``views_each``.
    """
    S = np.asarray(sim, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"similarity matrix must be square, got shape {S.shape}")
    pos_idx = batch_positives(batch_sources(S.shape[0], views_each), views_each)
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
    return scores, pos_idx, scores[np.arange(S.shape[0])[:, None], pos_idx]


def batch_smooth_ap_loss(sim, views_each, cfg: SmoothingConfig) -> ApResult:
    """Smoothed-ranking loss of a multi-view batch.

    Each of the ``B*K`` views serves once as the query; the other views of
    its source (K = ``views_each`` consecutive rows) are the positives and
    the views of all other sources the negatives.  The query itself is
    excluded from its gallery, so the gradient diagonal is exactly zero.

    Returns per-query smoothed and exact average precision, ``loss = 1 -
    mean(ap)`` and the gradient of the loss w.r.t. every similarity entry
    (row ``q`` holds query ``q``'s contribution).  The scores, positive
    columns and positive scores come from `_checked_batch`.  The queries run
    through `_smooth_ap_rows` in `row_blocks` of 2 (K-1) n entries a row,
    its table and the slopes' temporary, and then all at once through
    `_exact_ap_rows`, which sorts both arrays in place.
    """
    scores, pos_idx, pos = _checked_batch(sim, views_each)
    n = scores.shape[0]
    blocks = row_blocks(n, 2 * (views_each - 1) * n)
    table = np.empty((blocks[0][1], views_each - 1, n))
    per_query, grad = np.empty(n), np.empty((n, n))
    for a, b in blocks:
        per_query[a:b], grad[a:b] = _smooth_ap_rows(scores[a:b], pos_idx[a:b], pos[a:b], cfg,
                                                    table[: b - a])
    grad /= -n
    loss = 1.0 - float(np.mean(per_query))
    return ApResult(per_query_ap=per_query, loss=loss, grad_wrt_similarities=grad,
                    exact_ap=_exact_ap_rows(scores, pos))


def info_nce_loss(similarities, views_each,
                  config: ContrastiveConfig | None = None) -> ContrastiveResult:
    """Contrastive (InfoNCE) loss of a multi-view batch, the baseline.

    Each view attracts the other K - 1 views of its source, the positives
    of `batch_positives`, and repels every other view through a
    temperature-scaled softmax: the multi-positive form of SupCon (Khosla
    et al., 2020), which at K = 2 is plain pairwise InfoNCE.  For view i
    with the positives P(i) the per-view loss is ``logsumexp_j(s_ij / t)
    - mean_{p in P(i)} s_ip / t`` over all j != i, and the reported loss
    is the mean over views.  The returned gradient is ``(softmax - 1/(K-1)
    on each positive) / (t * n)`` per row with a zero diagonal, and
    ``exact_ap`` the exact AP of each row, as `batch_smooth_ap_loss`
    reports it.  The n x n matrix holds B sources' K = ``views_each``
    views each, in consecutive rows; any K >= 2 works.  It is checked,
    and its positives gathered, by `_checked_batch`, as for
    `batch_smooth_ap_loss`, so both losses refuse the same matrices with
    the same text; the diagonal enters neither the loss nor the exact
    AP.  The exact AP is ranked on the first read of ``exact_ap``, so a
    caller that reads only the loss or gradient does not pay for it.
    """
    if config is None:
        config = ContrastiveConfig()
    scores, pos_idx, pos = _checked_batch(similarities, views_each)
    n = scores.shape[0]
    rows = np.arange(n)[:, None]
    logits = scores / config.temperature

    top = logits.max(axis=1)
    lse = np.log(np.exp(logits - top[:, None]).sum(axis=1)) + top
    per_view = lse - (pos / config.temperature).mean(axis=1)

    grad = np.exp(logits - lse[:, None])
    grad[rows, pos_idx] -= 1.0 / (views_each - 1)
    grad /= config.temperature * n
    np.fill_diagonal(grad, 0.0)
    return ContrastiveResult(per_view_loss=per_view, loss=float(np.mean(per_view)),
                             grad_wrt_similarities=grad, _ranked=(scores, pos))
