"""Representation quality measurement: linear probe and retrieval mAP.

The probe is a multinomial logistic regression trained by full-batch
gradient descent on frozen features; no external solver, so results are
bit-deterministic per seed.  Retrieval quality is the mean exact average
precision over every sample used as a query against the rest, computed in
bounded row blocks of cosine similarities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoder import EncoderParams, forward
from .ranking import _mean_exact_ap_by_rows
from .similarity import normalize

__all__ = [
    "ProbeConfig",
    "ProbeResult",
    "extract_features",
    "train_linear_probe",
    "retrieval_map",
]

SCALE_FLOOR = 1e-8


@dataclass(frozen=True)
class ProbeConfig:
    epochs: int = 100
    learning_rate: float = 1e-2
    l2_penalty: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.l2_penalty < 0:
            raise ValueError(f"l2_penalty must be >= 0, got {self.l2_penalty}")


@dataclass
class ProbeResult:
    top1_accuracy: float
    per_class_accuracy: np.ndarray  # (num_classes,), nan for classes absent from test set
    weights: np.ndarray  # (dim, num_classes) in standardized-feature space
    bias: np.ndarray  # (num_classes,)
    feature_mean: np.ndarray = field(repr=False, default=None)
    feature_scale: np.ndarray = field(repr=False, default=None)

    def predict(self, features: np.ndarray) -> np.ndarray:
        z = (np.asarray(features, dtype=np.float64) - self.feature_mean) / self.feature_scale
        return np.argmax(z @ self.weights + self.bias, axis=1)


def extract_features(params: EncoderParams, dataset) -> np.ndarray:
    """Frozen representations (pre projection head) for every sample."""
    flat = dataset.flat_samples()
    if flat.shape[0] == 0:
        return np.zeros((0, params.config.rep_dim), dtype=np.float64)
    if flat.shape[1] != params.config.input_dim:
        raise ValueError(
            f"dataset features have dim {flat.shape[1]}, encoder expects {params.config.input_dim}"
        )
    reps, _, _ = forward(params, flat)
    return np.asarray(reps, dtype=np.float64)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    return shifted / shifted.sum(axis=1, keepdims=True)


def train_linear_probe(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    test_features: np.ndarray,
    test_labels: np.ndarray,
    config: ProbeConfig | None = None,
    num_classes: int | None = None,
) -> ProbeResult:
    """Fit a softmax classifier on train features, score it on held-out ones.

    Features are standardized with train-set statistics so the fixed
    learning rate works across feature scales.  Full-batch gradient
    descent on the L2-penalized cross-entropy, `config.epochs` steps.
    """
    if config is None:
        config = ProbeConfig()
    x = np.asarray(train_features, dtype=np.float64)
    y = np.asarray(train_labels)
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError(f"probe needs >= 2 classes in the training labels, got {classes.size}")
    if num_classes is None:
        num_classes = int(classes.max()) + 1
    test_y = np.asarray(test_labels)
    for name, arr in (("train", y), ("test", test_y)):
        if arr.size and (arr.min() < 0 or arr.max() >= num_classes):
            raise ValueError(f"{name} labels fall outside [0, {num_classes})")

    mean = x.mean(axis=0)
    scale = np.maximum(x.std(axis=0), SCALE_FLOOR)
    z = (x - mean) / scale
    n, dim = z.shape

    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0

    rng = np.random.default_rng(config.seed)
    w = rng.normal(0.0, 0.01, size=(dim, num_classes))
    b = np.zeros(num_classes)
    for _ in range(config.epochs):
        grad_logits = (_softmax_rows(z @ w + b) - onehot) / n
        w -= config.learning_rate * (z.T @ grad_logits + config.l2_penalty * w)
        b -= config.learning_rate * grad_logits.sum(axis=0)

    result = ProbeResult(
        top1_accuracy=0.0,
        per_class_accuracy=np.full(num_classes, np.nan),
        weights=w,
        bias=b,
        feature_mean=mean,
        feature_scale=scale,
    )
    pred = result.predict(test_features)
    correct = pred == test_y
    result.top1_accuracy = float(np.mean(correct))
    for c in np.unique(test_y):
        result.per_class_accuracy[c] = float(np.mean(correct[test_y == c]))
    return result


def retrieval_map(features: np.ndarray, labels: np.ndarray) -> float:
    """Mean exact AP over all queries; same-label items are the positives.

    Each sample queries the gallery of all other samples, so every class
    must contribute at least 2 samples.  Equals `ranking.mean_exact_ap` of
    the cosine-similarity matrix, but its rows are computed block by block
    from the unit features, so memory grows as O(block * n), never n x n.
    """
    unit = normalize(features)

    def cosine_rows(a: int, b: int) -> np.ndarray:
        rows = unit[a:b] @ unit.T
        return np.clip(rows, -1.0, 1.0, out=rows)

    return _mean_exact_ap_by_rows(cosine_rows, labels)
