"""The linear probe: top-1 accuracy of a classifier on frozen features.

The probe is a multinomial logistic regression trained by full-batch
gradient descent on frozen features; no external solver, so results are
bit-deterministic per seed.  The standardization statistics are float64;
the epochs run in float32 on the standardized train features with a
column of ones appended, held as an (n, dim + 1) array and its
(dim + 1, n) transpose, so the bias is the last column of the weights
and rides in the same matrix products.  The epochs work class-major
in (classes, n) buffers allocated once before the loop and dropped
before the test set is scored.  The returned weights and bias are exact
float64 upcasts, and prediction and top-1 are computed in float64.  The
features come from `encoder.extract_features`, retrieval mAP from
`ranking.retrieval_map`, and `experiment.evaluate` runs the two
measurements together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoder import DivergenceError

__all__ = ["ProbeConfig", "ProbeResult", "train_linear_probe"]

SCALE_FLOOR = 1e-8


@dataclass(frozen=True)
class ProbeConfig:
    epochs: int = 100
    learning_rate: float = 1e-2
    l2_penalty: float = 1e-4

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")  # named, not echoed: it may be long
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not self.l2_penalty >= 0:
            raise ValueError(f"l2_penalty must be >= 0, got {self.l2_penalty}")


@dataclass
class ProbeResult:
    """A fitted probe and its test scores.

    `weights` and `bias` hold the float32 fit upcast exactly to float64;
    `predict` standardizes with the float64 train statistics and scores
    in float64.
    """

    top1_accuracy: float
    weights: np.ndarray  # (dim, num_classes) in standardized-feature space
    bias: np.ndarray  # (num_classes,)
    feature_mean: np.ndarray = field(repr=False, default=None)
    feature_scale: np.ndarray = field(repr=False, default=None)

    def predict(self, features: np.ndarray) -> np.ndarray:
        z = np.subtract(features, self.feature_mean, dtype=np.float64)
        z /= self.feature_scale  # one standardized buffer, divided in place
        return np.argmax(z @ self.weights + self.bias, axis=1)


def _check_probe_inputs(x, y, test_x, test_y) -> None:
    for name, feats, labels in (("train", x, y), ("test", test_x, test_y)):
        if feats.ndim != 2:
            raise ValueError(f"{name} features must be 2-d, got shape {feats.shape}")
        if feats.shape[0] == 0:
            raise ValueError(f"{name} split is empty")
        if not np.all(np.isfinite(feats)):
            raise ValueError(f"{name} features must be finite")
        if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"{name} labels must be a 1-d integer array, "
                             f"got shape {labels.shape} of {labels.dtype}")
        if labels.shape[0] != feats.shape[0]:
            raise ValueError(f"{name} labels have {labels.shape[0]} entries "
                             f"for {feats.shape[0]} feature rows")
    if x.shape[1] != test_x.shape[1]:
        raise ValueError(f"train features have width {x.shape[1]}, "
                         f"test features {test_x.shape[1]}")


def train_linear_probe(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    test_features: np.ndarray,
    test_labels: np.ndarray,
    config: ProbeConfig | None = None,
    num_classes: int | None = None,
    *,
    seed: int,
) -> ProbeResult:
    """Fit a softmax classifier on train features, score it on held-out ones.

    Features are standardized with train-set statistics so the fixed
    learning rate works across feature scales.  Full-batch gradient
    descent on the L2-penalized cross-entropy, `config.epochs` steps,
    from weights drawn by ``np.random.default_rng(seed)``.

    The mean and scale are float64; the epochs run in float32.  The
    standardized train features are written once, without a float64
    copy, into an ``(n, dim + 1)`` array whose last column is ones, and
    into its ``(dim + 1, n)`` transpose.  The weights are held as
    ``(classes, dim + 1)``, the bias in the last column, and the L2 decay
    applies to the ``dim`` weight columns only.  Every epoch computes its
    logits with the bias (``wt @ zt``) and softmax in place in one
    ``(classes, n)`` buffer allocated before the loop, so each softmax
    reduction combines n-wide rows, and takes the weight and bias
    gradient together as ``p @ z - onehot @ z`` on the row-major copy,
    with ``onehot @ z`` computed once before the loop.  Both products run
    in chunks of columns of n, each small enough for OpenBLAS's
    small-matrix kernel, written into views of the logits or summed into
    the gradient.  The returned weights are the exact float64 upcast,
    ``(dim, classes)``, and the bias ``(classes,)``, as
    `ProbeResult.predict` expects.

    Classes are counted with `np.bincount`, so the labels are checked to
    lie in ``[0, num_classes)`` before anything of that size is built.
    Raises `ValueError` on features that are not 2-d and finite, on an
    empty split, on unequal train/test widths, on labels that are not
    1-d integers with one entry per feature row or that fall outside
    ``[0, num_classes)``, and on fewer than two training classes.
    Raises `DivergenceError` when the fitted weights or bias are not
    finite, as a too-large learning rate or penalty leaves them.
    """
    if config is None:
        config = ProbeConfig()
    x = np.asarray(train_features, dtype=np.float64)
    y = np.asarray(train_labels)
    test_x = np.asarray(test_features, dtype=np.float64)
    test_y = np.asarray(test_labels)
    _check_probe_inputs(x, y, test_x, test_y)
    if num_classes is None:
        num_classes = int(y.max()) + 1
    for name, arr in (("train", y), ("test", test_y)):
        if arr.min() < 0 or arr.max() >= num_classes:
            raise ValueError(f"{name} labels fall outside [0, {num_classes})")
    # in range, so every label fits bincount's index type (uint64 does not cast)
    y, test_y = y.astype(np.intp, copy=False), test_y.astype(np.intp, copy=False)
    present = np.count_nonzero(np.bincount(y))
    if present < 2:
        raise ValueError(f"probe needs >= 2 classes in the training labels, got {present}")

    n, dim = x.shape
    mean = x.mean(axis=0)
    scale = np.maximum(x.std(axis=0), SCALE_FLOOR)
    z = np.empty((n, dim + 1), dtype=np.float32)
    np.subtract(x, mean, out=z[:, :dim], casting="same_kind")  # cast in blocks, no float64 copy
    z[:, :dim] /= scale
    z[:, dim] = 1.0  # the bias column
    zt = np.ascontiguousarray(z.T)

    rng = np.random.default_rng(seed)
    wt = np.zeros((num_classes, dim + 1), dtype=np.float32)
    w = wt[:, :dim]  # the weight columns, a view; the bias starts at zero
    w[...] = rng.normal(0.0, 0.01, size=(dim, num_classes)).T
    onehot = np.zeros((num_classes, n), dtype=np.float32)
    onehot[y, np.arange(n)] = 1.0
    target = onehot @ z  # the gradient's constant part, (classes, dim + 1)
    del onehot
    p = np.empty((num_classes, n), dtype=np.float32)  # logits, then softmax
    col = np.empty((1, n), dtype=np.float32)
    gw = np.empty((num_classes, dim + 1), dtype=np.float32)
    part = np.empty_like(gw)
    # OpenBLAS runs an sgemm of M * N * K <= 1e6 in its small-matrix kernel, a third to a
    # half cheaper a column; not BLOCK_ENTRIES, as it sets the gradient's summation order
    chunk = max(1, 10**6 // (num_classes * (dim + 1)))
    chunks = [slice(a, a + chunk) for a in range(0, n, chunk)]
    step = config.learning_rate / n  # the mean over rows, folded into the step
    decay = 1.0 - config.learning_rate * config.l2_penalty
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged fit is reported below
        for _ in range(config.epochs):
            for c in chunks:
                np.matmul(wt, zt[:, c], out=p[:, c])
            np.maximum.reduce(p, axis=0, keepdims=True, out=col)
            p -= col
            np.exp(p, out=p)
            np.add.reduce(p, axis=0, keepdims=True, out=col)
            p /= col
            np.matmul(p[:, chunks[0]], z[chunks[0]], out=gw)
            for c in chunks[1:]:
                gw += np.matmul(p[:, c], z[c], out=part)
            gw -= target
            w *= decay
            gw *= step
            wt -= gw
    if not np.isfinite(wt).all():
        raise DivergenceError(
            f"linear probe weights are not finite after {config.epochs} epochs "
            f"(learning_rate = {config.learning_rate!r}, l2_penalty = {config.l2_penalty!r})"
        )
    del z, zt, p  # the fit's buffers are not needed to score the test set

    result = ProbeResult(
        top1_accuracy=0.0,
        weights=w.T.astype(np.float64, order="C"),
        bias=wt[:, dim].astype(np.float64),
        feature_mean=mean,
        feature_scale=scale,
    )
    result.top1_accuracy = float(np.mean(result.predict(test_x) == test_y))
    return result
