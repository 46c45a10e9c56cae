"""Pairwise contrastive (InfoNCE) objective used as a baseline.

Works on the same similarity matrix and group layout as the ranking
loss, so the two objectives can be swapped behind one training loop.
Each view attracts one designated positive and repels every other view
in the batch through a temperature-scaled softmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .ranking import validate_groups

__all__ = ["ContrastiveConfig", "ContrastiveResult", "info_nce_loss"]

PAIRINGS = ("adjacent_pairs",)


@dataclass(frozen=True)
class ContrastiveConfig:
    """Temperature and positive-pairing rule for the InfoNCE loss.

    ``adjacent_pairs`` pairs consecutive views within a group (view 0
    with view 1, view 2 with view 3, ...), so it needs an even number of
    views per group, each group's views in consecutive rows.
    """

    temperature: float = 0.5
    pairing: str = "adjacent_pairs"

    def __post_init__(self) -> None:
        if not self.temperature > 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if self.pairing not in PAIRINGS:
            raise ValueError(f"unknown pairing {self.pairing!r}, expected one of {PAIRINGS}")


@dataclass
class ContrastiveResult:
    per_view_loss: np.ndarray  # (n,) cross-entropy of each view's positive
    loss: float
    grad_wrt_similarities: np.ndarray  # (n, n) d loss / d sim, zero diagonal


def _partner_indices(group_of_view: np.ndarray, K: int) -> np.ndarray:
    """Positive index for each view under the adjacent_pairs rule."""
    if K % 2 != 0:
        raise ValueError(f"adjacent_pairs needs an even number of views per group, got K={K}")
    n = group_of_view.shape[0]
    if np.any(group_of_view.reshape(-1, K) != group_of_view[::K, None]):
        raise ValueError("adjacent_pairs needs each group's views in K consecutive rows")
    partners = np.arange(n)
    partners[0::2] += 1
    partners[1::2] -= 1
    return partners


def info_nce_loss(
    similarities: np.ndarray,
    group_of_view: np.ndarray,
    config: ContrastiveConfig | None = None,
) -> ContrastiveResult:
    """InfoNCE loss and its gradient on a multi-view similarity matrix.

    For view i with positive p(i) the per-view loss is the softmax
    cross-entropy ``logsumexp_j(s_ij / t) - s_ip(i) / t`` over all j != i,
    and the reported loss is the mean over views.  The returned gradient
    is ``(softmax - onehot) / (t * n)`` per row with a zero diagonal.
    """
    if config is None:
        config = ContrastiveConfig()
    group_of_view = np.asarray(group_of_view)
    _, K = validate_groups(group_of_view)
    s = np.asarray(similarities, dtype=np.float64)
    n = s.shape[0]
    if s.shape != (n, n) or n != group_of_view.shape[0]:
        raise ValueError(f"similarities shape {s.shape} does not match {group_of_view.shape[0]} views")

    partners = _partner_indices(group_of_view, K)
    logits = s / config.temperature
    np.fill_diagonal(logits, -np.inf)

    lse = logsumexp(logits, axis=1)
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
