"""Row normalization and the cosine-similarity matrix with exact backward pass.

Representations enter the ranking loss only through the cosine similarities
of their unit-normalized rows, so this module owns the normalization, the
dense similarity matrix and the chain rule back to the raw vectors.  The
dense matrix serves training batches (B*K views, about a hundred rows);
retrieval over a whole split instead computes row blocks from `normalize`
(see `ranking.retrieval_map`), so its memory stays O(block * n).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DegenerateInputError",
    "NORM_FLOOR",
    "normalize",
    "cosine_similarity_matrix",
    "backprop_similarity",
]

# Rows with a norm at or below this have no usable direction; erroring out
# (rather than clamping) makes encoder collapse visible immediately.
NORM_FLOOR = 1e-12


class DegenerateInputError(ValueError):
    """A representation row has (near-)zero norm, so its direction is undefined."""


def _unit_rows(vectors) -> tuple[np.ndarray, np.ndarray]:
    """``(unit, norms)``: the rows of ``vectors``, a (rows, dim) matrix or
    one row, scaled to unit norm, and their norms."""
    v = np.asarray(vectors, dtype=np.float64)
    if v.ndim == 1:
        v = v[None, :]
    if v.ndim != 2 or v.shape[1] < 1:
        raise ValueError(f"expected a (rows, dim) matrix, got shape {np.shape(vectors)}")
    if not np.all(np.isfinite(v)):
        raise DegenerateInputError("representation vectors must be finite")
    norms = np.linalg.norm(v, axis=1)
    if np.any(norms <= NORM_FLOOR):
        bad = int(np.argmax(norms <= NORM_FLOOR))
        raise DegenerateInputError(
            f"row {bad} has norm {norms[bad]:.3e} <= {NORM_FLOOR:g}; "
            "cannot normalize a (near-)zero vector"
        )
    return v / norms[:, None], norms


def normalize(vectors) -> np.ndarray:
    """Scale every row to unit Euclidean norm, preserving its direction."""
    unit, _ = _unit_rows(vectors)
    return unit[0] if np.ndim(vectors) == 1 else unit


def cosine_similarity_matrix(vectors) -> np.ndarray:
    """Pairwise cosine similarities of the rows.

    The result is symmetric with entries clipped to [-1, 1] and the
    diagonal pinned to exactly 1 (round-off would otherwise leak past
    both).
    """
    unit, _ = _unit_rows(vectors)
    sim = unit @ unit.T
    np.clip(sim, -1.0, 1.0, out=sim)
    np.fill_diagonal(sim, 1.0)
    return sim


def backprop_similarity(vectors, grad_sim) -> np.ndarray:
    """Gradient of ``sum(grad_sim * cosine_similarity_matrix(vectors))``.

    Differentiates through both the inner product and the row
    normalization; the normalization Jacobian ``(I - u u^T) / ||r||``
    projects out the radial component, which is why diagonal entries (and
    any uniform scaling of a row) contribute nothing.
    """
    unit, norms = _unit_rows(vectors)
    g = np.asarray(grad_sim, dtype=np.float64)
    n = unit.shape[0]
    if g.shape != (n, n):
        raise ValueError(f"grad_sim shape {g.shape} does not match {n} vectors")
    # each entry sim[u, v] = unit_u . unit_v, so d/d unit = (G + G^T) @ unit
    gu = (g + g.T) @ unit
    radial = np.sum(gu * unit, axis=1, keepdims=True)
    return (gu - radial * unit) / norms[:, None]
