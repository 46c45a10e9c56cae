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
of array operations.  `_smooth_ap_rows` is the one smoothed-AP kernel:
`smooth_ap` and `smooth_ap_grad` call it with one row and
`batch_smooth_ap_loss` with row blocks of the full similarity matrix.
From one (rows, P, n) table of positive-minus-item differences, and
its (rows, P, P) part among the positives, it returns the smoothed AP,
its gradient, and the exact AP of the same scores, so training reads
its per-step diagnostic from the loss pass.
`_exact_ap_rows` serves `exact_ap`, `mean_exact_ap` (over a similarity
matrix) and `retrieval_map` (representation quality, over features).
The last two feed it row blocks of at most about `_BLOCK_ENTRIES`
scores, counting its positive-wide work tables, written one after
another into one buffer, so their memory is O(block * n) for n queries
whatever the class sizes, and retrieval never builds the n x n matrix.
The exact kernel takes each query's positive scores as a row of a
-inf-padded table: the block feeder gathers them through a per-label
member table built once per call, and the kernel ranks each positive
among the positives from the ends of the tie runs in that table, sorted.

All functions are pure (the batch loss only memoizes the index layout of
its group array); computation is float64 regardless of input dtype,
and the same inputs give bit-identical results.  Exact AP sums each
query's rank ratios with ``math.fsum`` in `_ap_from_ranks`, which both
kernels end in, so it is correctly rounded and depends neither on the
kernel nor on how queries are blocked.  Smoothed AP sums each query's
sigmoid row in gallery order with numpy's pairwise summation, and the
gradient sums over the positives in one matrix product per row.  A batch
row holds the query's own column as an exact zero, so its smoothed AP
and gradient may differ in the last ulp from `smooth_ap` and
`smooth_ap_grad` on the same gallery without that column; blocking never
changes a bit.
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
# entries, which bounds its working memory: each row counts its n scores
# and _P_TABLES work tables as wide as the largest label (128 views in 16
# labels are one block).
_BLOCK_ENTRIES = 2**18
_P_TABLES = 8

# The batch loss runs its (rows, P, n) table in blocks of at most this many
# entries (B=16, K=8 is one block), and keeps the index layouts of a few
# group arrays.
_TABLE_ENTRIES = 2**17
_LAYOUT_CACHE_SIZE = 8
_LAYOUTS: dict = {}


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


def _ap_from_ranks(rank_in_pos: np.ndarray, rank_in_all: np.ndarray, n_pos) -> np.ndarray:
    """Each row's AP from its positives' ranks (Q, P), as ``fsum`` of the
    ratios over ``n_pos``; a rank of 0 among the positives marks padding.

    The one summation of exact AP: both kernels end here, and ``math.fsum``
    makes each row's sum correctly rounded, whatever the row's layout.
    """
    ratio = rank_in_pos / rank_in_all
    return np.array([math.fsum(row.tolist()) for row in ratio]) / n_pos


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
    sorted row.  `_ap_from_ranks` sums the ratios.
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
    return _ap_from_ranks(rank_in_pos, rank_in_all, real.sum(axis=1))


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
    then sorts the block in place.  A block of r rows holds r * n scores
    and about `_P_TABLES` work tables of r * C entries, for the largest
    class size C, and r is the most rows that keep their sum within
    `_BLOCK_ENTRIES`, so memory is O(block * n) whatever n and C.
    """
    n = labels.shape[0]
    members, code = _member_table(labels)
    step = max(1, _BLOCK_ENTRIES // (n + _P_TABLES * members.shape[1]))
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
        pos = block[own[0][:, None], cols]
        del cols
        aps[a:b] = _exact_ap_rows(block, pos)
    return float(np.mean(aps))


def _check_retrieval_shapes(rows: np.ndarray, what: str, labels) -> np.ndarray:
    """``labels`` as an array; raises `ValueError` unless ``rows`` is 2-d
    and the labels 1-d."""
    labels = np.asarray(labels)
    if rows.ndim != 2:
        raise ValueError(f"{what} must be 2-d, got shape {rows.shape}")
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-d, got shape {labels.shape}")
    return labels


def mean_exact_ap(sim, labels) -> float:
    """Mean `exact_ap` of every row of ``sim`` querying all other items.

    Row ``q`` scores the gallery for query ``q``; items sharing the query's
    label are its positives, and the query never enters its own gallery,
    so the diagonal is ignored.  The rows run through one vectorized
    kernel in blocks of bounded size, and each query's AP is bit-identical
    to `exact_ap` on its gallery.  Used as the in-batch training
    diagnostic; `retrieval_map` feeds the same blocks from features.
    Raises `ValueError` unless ``sim`` is (n, n) for n 1-d labels.
    """
    S = np.asarray(sim)
    labels = _check_retrieval_shapes(S, "similarity matrix", labels)
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
    Raises `ValueError` unless ``features`` is 2-d with one row per label
    of a 1-d ``labels``.
    """
    features = np.asarray(features)
    labels = _check_retrieval_shapes(features, "features", labels)
    unit = normalize(features)
    if unit.shape[0] != labels.shape[0]:
        raise ValueError(f"{unit.shape[0]} feature rows do not match {labels.shape[0]} labels")

    def cosine_rows(a: int, b: int, out: np.ndarray) -> None:
        np.matmul(unit[a:b], unit.T, out=out)
        np.clip(out, -1.0, 1.0, out=out)

    return _mean_exact_ap_by_rows(cosine_rows, labels)


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
    """Smoothed AP, exact AP and the smoothed AP's score gradient for Q
    queries at once.

    Row ``q`` of ``scores`` (Q, m) scores query ``q``'s gallery, and the
    flat indices from `_positive_layout` place its P positives.  A score
    of -inf marks an item outside the gallery (the query itself), which
    drops out of every term.  ``work`` holds two (Q, P, m) float64 tables.

    The first table is ``pos - score`` for every positive and item, and
    a (Q, P, P) table holds the same differences among the positives.
    Their signs are exact, so their entries below zero count each
    positive's strictly higher items, in the gallery and among the
    positives, and `_ap_from_ranks` turns the counts into exact AP.  In
    place, both then become ``phi(score - pos)``, with each positive's
    own entry zeroed, and later the slopes ``phi * (1 - phi)``.  By the
    quotient rule, with the ``1/P`` mean and the ``1/tau`` of the slope
    folded in, ``alpha_r = -num_r / (den_r**2 tau P)`` weighs every term
    of positive r and ``beta_r = 1 / (den_r tau P)`` its terms on
    positives (a smoothed numerator only).  Each term adds its weighted
    slope to ``d/d score[j]`` and takes it from ``d/d score[pos r]``.
    Returns ``ap``, ``exact_ap`` (both (Q,)) and ``grad`` (Q, m).
    """
    n_rows, m = scores.shape
    n_pos = pos_flat.shape[1]
    pos_scores = scores.reshape(-1)[pos_flat]
    table, spare = work
    np.subtract(pos_scores[:, :, None], scores[:, None, :], out=table)
    among = np.subtract(pos_scores[:, :, None], pos_scores[:, None, :])
    rank_in_pos = 1 + (among < 0).sum(axis=2)
    exact = _ap_from_ranks(rank_in_pos, 1 + (table < 0).sum(axis=2), n_pos)

    _sigmoid_of_differences(table, cfg.tau)
    _sigmoid_of_differences(among, cfg.tau)
    table.reshape(-1)[own] = 0.0
    diag = np.arange(n_pos)
    among[:, diag, diag] = 0.0
    den = 1.0 + table.sum(axis=2)
    num = 1.0 + among.sum(axis=2) if cfg.smooth_numerator else rank_in_pos
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
    return ap, exact, grad.reshape(n_rows, m)


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
    return _single_query_rows(scores, is_positive, cfg)[2][0]


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


def _check_similarity_matrix(sim: np.ndarray, n: int, scratch: np.ndarray) -> None:
    """Validate `sim`, writing its asymmetry into the (n, n) `scratch` buffer."""
    if sim.shape != (n, n):
        raise ValueError(f"similarity matrix shape {sim.shape} does not match {n} views")
    if not np.all(np.isfinite(sim)):
        raise ValueError("similarity matrix must be finite")
    # sim.T - sim is antisymmetric entry for entry, so its max is its max |.|;
    # copying the transpose first keeps the subtraction contiguous
    np.copyto(scratch, sim.T)
    if np.max(np.subtract(scratch, sim, out=scratch)) > SIM_TOLERANCE:
        raise ValueError("similarity matrix is not symmetric")
    if np.max(np.abs(np.diagonal(sim) - 1.0)) > SIM_TOLERANCE:
        raise ValueError("similarity matrix diagonal must be 1")


def _batch_layout(groups: np.ndarray, step_entries: int):
    """``(step, pos_flat, own)`` for a batch's group array.

    The positives of every query and the flat indices of `_positive_layout`
    depend on the group array alone, so they are built once per distinct
    array (its dtype, shape and bytes) and block budget.  A new array is
    checked by `validate_groups` before it is kept, so an invalid array
    always raises.
    """
    key = (groups.dtype.str, groups.shape, groups.tobytes(), step_entries)
    layout = _LAYOUTS.get(key)
    if layout is None:
        _, views_each = validate_groups(groups)
        n = groups.shape[0]
        same = groups[:, None] == groups[None, :]
        np.fill_diagonal(same, False)
        pos_idx = np.nonzero(same)[1].reshape(n, views_each - 1)
        step = max(1, step_entries // ((views_each - 1) * n))
        layout = (step, *_positive_layout(pos_idx, n, step))
        for index in layout[1:]:
            index.setflags(write=False)
        if len(_LAYOUTS) >= _LAYOUT_CACHE_SIZE:
            _LAYOUTS.clear()
        _LAYOUTS[key] = layout
    return layout


def batch_smooth_ap_loss(sim, group_of_view, cfg: SmoothingConfig) -> ApResult:
    """Smoothed-ranking loss of a multi-view batch.

    Each of the ``B*K`` views serves once as the query; the other views of
    its group are the positives and the views of all other groups the
    negatives.  The query itself is excluded from its gallery, so the
    gradient diagonal is exactly zero.

    Returns per-query smoothed and exact average precision, ``loss = 1 -
    mean(ap)`` and the gradient of the loss w.r.t. every similarity entry
    (row ``q`` holds query ``q``'s contribution).  The queries run through
    `_smooth_ap_rows` in blocks of at most about `_TABLE_ENTRIES` table
    entries, on a copy of the matrix whose diagonal is -inf.
    """
    S = np.asarray(sim, dtype=np.float64)
    groups = np.asarray(group_of_view)
    step, pos_flat, own = _batch_layout(groups, _TABLE_ENTRIES)
    n = groups.shape[0]
    scores = np.empty((n, n))
    _check_similarity_matrix(S, n, scores)

    np.copyto(scores, S)
    np.fill_diagonal(scores, -np.inf)
    work = np.empty((2, min(step, n), pos_flat.shape[1], n))
    per_query, exact, grad = np.empty(n), np.empty(n), np.empty((n, n))
    for a in range(0, n, step):
        b = min(a + step, n)
        per_query[a:b], exact[a:b], grad[a:b] = _smooth_ap_rows(
            scores[a:b], pos_flat[a:b], own[a:b], cfg, work[:, : b - a])
    grad /= -n
    loss = 1.0 - float(np.mean(per_query))
    return ApResult(per_query_ap=per_query, loss=loss, grad_wrt_similarities=grad,
                    exact_ap=exact)
