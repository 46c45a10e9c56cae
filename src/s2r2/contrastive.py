"""Contrastive (InfoNCE) objective used as a baseline.

Works on the same similarity matrix and batch layout as the ranking
loss, a source's K views in K consecutive rows, and takes the same K,
which `ranking.batch_sources` checks, so the two objectives can be
swapped behind one training loop.  Each view attracts all K - 1 other
views of its source, the positives of `ranking.batch_positives` that the
ranking loss also reads, and repels every other view in the batch
through a temperature-scaled softmax: the multi-positive form of SupCon
(Khosla et al., 2020), which at K = 2 is plain pairwise InfoNCE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ranking import batch_positives, batch_sources

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
    per_view_loss: np.ndarray  # (n,) mean cross-entropy of each view's positives
    loss: float
    grad_wrt_similarities: np.ndarray  # (n, n) d loss / d sim, zero diagonal


def info_nce_loss(
    similarities: np.ndarray,
    views_each: int,
    config: ContrastiveConfig | None = None,
) -> ContrastiveResult:
    """InfoNCE loss and its gradient on a multi-view similarity matrix.

    For view i with the K - 1 positives P(i) the per-view loss is
    ``logsumexp_j(s_ij / t) - mean_{p in P(i)} s_ip / t`` over all
    j != i, the softmax cross-entropy averaged over the positives, and
    the reported loss is the mean over views.  The returned gradient is
    ``(softmax - 1/(K-1) on each positive) / (t * n)`` per row with a
    zero diagonal.  The n x n matrix holds B sources' K = ``views_each``
    views each, in consecutive rows; any K >= 2 works.
    """
    if config is None:
        config = ContrastiveConfig()
    s = np.asarray(similarities, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"similarities must be square, got shape {s.shape}")
    n = s.shape[0]
    pos_idx = batch_positives(batch_sources(n, views_each), views_each)
    rows = np.arange(n)[:, None]
    logits = s / config.temperature
    np.fill_diagonal(logits, -np.inf)

    top = logits.max(axis=1)
    lse = np.log(np.exp(logits - top[:, None]).sum(axis=1)) + top
    per_view = lse - logits[rows, pos_idx].mean(axis=1)

    probs = np.exp(logits - lse[:, None])
    grad = probs
    grad[rows, pos_idx] -= 1.0 / (views_each - 1)
    grad /= config.temperature * n
    np.fill_diagonal(grad, 0.0)

    return ContrastiveResult(
        per_view_loss=per_view,
        loss=float(np.mean(per_view)),
        grad_wrt_similarities=grad,
    )
