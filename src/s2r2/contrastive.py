"""Pairwise contrastive (InfoNCE) objective used as a baseline.

Works on the same similarity matrix and batch layout as the ranking
loss, a source's K views in K consecutive rows, and takes the same K,
which `ranking.batch_sources` checks, so the two objectives can be
swapped behind one training loop.  Each view attracts one positive, the
adjacent view of its source, and repels every other view in the batch
through a temperature-scaled softmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ranking import batch_sources

__all__ = ["ContrastiveConfig", "ContrastiveResult", "info_nce_loss"]

@dataclass(frozen=True)
class ContrastiveConfig:
    """Softmax temperature of the InfoNCE loss."""

    temperature: float = 0.5

    def __post_init__(self) -> None:
        if not self.temperature > 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")


@dataclass
class ContrastiveResult:
    per_view_loss: np.ndarray  # (n,) cross-entropy of each view's positive
    loss: float
    grad_wrt_similarities: np.ndarray  # (n, n) d loss / d sim, zero diagonal


def _partner_indices(n: int, K: int) -> np.ndarray:
    """Positive index for each of n views: consecutive views of a source
    pair up (view 0 with view 1, view 2 with view 3, ...), so a source
    needs an even number K of views."""
    if K % 2 != 0:
        raise ValueError(f"adjacent pairs need an even number of views per source, got K={K}")
    partners = np.arange(n)
    partners[0::2] += 1
    partners[1::2] -= 1
    return partners


def info_nce_loss(
    similarities: np.ndarray,
    views_each: int,
    config: ContrastiveConfig | None = None,
) -> ContrastiveResult:
    """InfoNCE loss and its gradient on a multi-view similarity matrix.

    For view i with positive p(i) the per-view loss is the softmax
    cross-entropy ``logsumexp_j(s_ij / t) - s_ip(i) / t`` over all j != i,
    and the reported loss is the mean over views.  The returned gradient
    is ``(softmax - onehot) / (t * n)`` per row with a zero diagonal.
    The n x n matrix holds B sources' K = ``views_each`` views each, in
    consecutive rows.
    """
    if config is None:
        config = ContrastiveConfig()
    s = np.asarray(similarities, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"similarities must be square, got shape {s.shape}")
    n = s.shape[0]
    batch_sources(n, views_each)

    partners = _partner_indices(n, views_each)
    logits = s / config.temperature
    np.fill_diagonal(logits, -np.inf)

    top = logits.max(axis=1)
    lse = np.log(np.exp(logits - top[:, None]).sum(axis=1)) + top
    per_view = lse - logits[np.arange(n), partners]

    probs = np.exp(logits - lse[:, None])
    grad = probs
    grad[np.arange(n), partners] -= 1.0
    grad /= config.temperature * n
    np.fill_diagonal(grad, 0.0)

    return ContrastiveResult(
        per_view_loss=per_view,
        loss=float(np.mean(per_view)),
        grad_wrt_similarities=grad,
    )
