"""A small MLP encoder with a non-linear projection head, trained by Adam.

The encoder maps inputs to the representation used for downstream probing;
the projection head maps that representation to the (smaller) space where
the training loss compares views.  Only the representation survives
evaluation, the head is discarded.

Everything is plain numpy: `forward` caches activations, `backward` runs
exact reverse mode through both stacks, `adam_step` applies the standard
bias-corrected update.  The weights and biases, both Adam moments and the
gradients each live in one flat buffer, in checkpoint order, and every
per-layer tensor is a view into its buffer; so `backward` writes its
gradients in place, and `adam_step` checks and updates every tensor in
one pass of whole-buffer operations.  Evaluation needs only the
representations, so `extract_features`, the one home of frozen features,
runs the encoder layers alone on a dataset, with no cache and no
projection head.
Weights train in float32 by default; pass ``dtype=np.float64`` to
`init_params` for gradient-check precision.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_write

__all__ = [
    "EncoderConfig",
    "OptimizerConfig",
    "EncoderParams",
    "DivergenceError",
    "init_params",
    "forward",
    "extract_features",
    "backward",
    "adam_step",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
]

CHECKPOINT_MAGIC = b"S2R2CKPT"
CHECKPOINT_VERSION = 1


class DivergenceError(RuntimeError):
    """Training produced non-finite numbers; the run cannot continue."""


@dataclass
class EncoderConfig:
    """Layer widths of the encoder stack and projection head.

    ``hidden_dims`` may be empty, leaving a single linear layer into the
    representation.  Hidden layers use ReLU; the representation layer and
    the projection output are linear; the projection hidden layer is ReLU.
    """

    input_dim: int
    hidden_dims: tuple[int, ...] = (128,)
    rep_dim: int = 64
    proj_hidden_dim: int = 64
    proj_out_dim: int = 64
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self) -> None:
        self.hidden_dims = tuple(int(d) for d in self.hidden_dims)
        dims = (self.input_dim, self.rep_dim, self.proj_hidden_dim, self.proj_out_dim)
        if any(d < 1 for d in dims) or any(d < 1 for d in self.hidden_dims):
            raise ValueError("all layer dimensions must be >= 1")
        if self.activation != "relu":
            raise ValueError(f"unsupported activation {self.activation!r}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    @property
    def n_encoder_layers(self) -> int:
        return len(self.hidden_dims) + 1

    def layer_shapes(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per layer: encoder stack, then projection head."""
        enc = [self.input_dim, *self.hidden_dims, self.rep_dim]
        proj = [self.rep_dim, self.proj_hidden_dim, self.proj_out_dim]
        chain = list(zip(enc[:-1], enc[1:])) + list(zip(proj[:-1], proj[1:]))
        return chain

    def relu_flags(self) -> list[bool]:
        """Whether a ReLU follows each layer (hidden layers and the
        projection hidden layer; representation and output stay linear)."""
        n_enc = self.n_encoder_layers
        flags = [li < n_enc - 1 for li in range(n_enc)]
        flags += [True, False]  # projection hidden, projection output
        return flags


@dataclass
class OptimizerConfig:
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if not self.eps > 0:
            raise ValueError("eps must be positive")


@dataclass
class EncoderParams:
    """Weights, biases and Adam state, in `EncoderConfig.layer_shapes` order.

    Every tensor is a view into one of four flat buffers that share the
    checkpoint layout (each layer's weight, then its bias): ``flat`` holds
    the weights and biases, ``m`` and ``v`` the Adam moments, and ``grad``
    the gradients that `backward` writes.  Build them with `init_params`
    or `load_checkpoint`.
    """

    config: EncoderConfig
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(repr=False)
    m: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    grad: np.ndarray = field(repr=False)
    m_weights: list[np.ndarray] = field(repr=False)
    v_weights: list[np.ndarray] = field(repr=False)
    m_biases: list[np.ndarray] = field(repr=False)
    v_biases: list[np.ndarray] = field(repr=False)
    grad_weights: list[np.ndarray] = field(repr=False)
    grad_biases: list[np.ndarray] = field(repr=False)
    step: int = 0

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype


def _layer_views(cfg: EncoderConfig, buffer: np.ndarray):
    """``(weights, biases)``: views of a flat buffer in checkpoint order."""
    weights, biases, off = [], [], 0
    for fan_in, fan_out in cfg.layer_shapes():
        weights.append(buffer[off : off + fan_in * fan_out].reshape(fan_in, fan_out))
        off += fan_in * fan_out
        biases.append(buffer[off : off + fan_out])
        off += fan_out
    return weights, biases


def _n_values(cfg: EncoderConfig) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in cfg.layer_shapes())


def init_params(cfg: EncoderConfig, dtype=np.float32) -> EncoderParams:
    """He-uniform weights from the seeded generator, zero biases, zero Adam
    state.  Bit-reproducible for a given seed and dtype."""
    rng = np.random.default_rng(cfg.seed)
    flat = np.zeros(_n_values(cfg), dtype=dtype)
    for w in _layer_views(cfg, flat)[0]:
        limit = np.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return _with_fresh_adam(cfg, flat)


def _with_fresh_adam(cfg: EncoderConfig, flat: np.ndarray) -> EncoderParams:
    """Wrap a flat weight-and-bias buffer with zeroed Adam moments and
    gradients at step 0."""
    m, v, grad = np.zeros_like(flat), np.zeros_like(flat), np.zeros_like(flat)
    weights, biases = _layer_views(cfg, flat)
    m_weights, m_biases = _layer_views(cfg, m)
    v_weights, v_biases = _layer_views(cfg, v)
    grad_weights, grad_biases = _layer_views(cfg, grad)
    return EncoderParams(
        config=cfg, weights=weights, biases=biases, flat=flat, m=m, v=v, grad=grad,
        m_weights=m_weights, v_weights=v_weights, m_biases=m_biases, v_biases=v_biases,
        grad_weights=grad_weights, grad_biases=grad_biases,
    )


def _checked_inputs(params: EncoderParams, inputs) -> np.ndarray:
    """Check that ``inputs`` is (n, input_dim) and cast it to the parameter dtype."""
    x = np.asarray(inputs)
    if x.ndim != 2 or x.shape[1] != params.config.input_dim:
        raise ValueError(
            f"inputs must be (n, {params.config.input_dim}), got shape {x.shape}"
        )
    return x.astype(params.dtype, copy=False)


def forward(params: EncoderParams, inputs):
    """Run the encoder and projection head.

    Returns ``(representations, projections, cache)``; the cache feeds
    `backward`.  Inputs are cast to the parameter dtype.
    """
    cfg = params.config
    x = _checked_inputs(params, inputs)

    flags = cfg.relu_flags()
    layer_inputs = []
    pre_acts = []
    h = x
    reps = None
    for li, (w, b) in enumerate(zip(params.weights, params.biases)):
        layer_inputs.append(h)
        z = h @ w + b
        pre_acts.append(z)
        h = np.maximum(z, 0) if flags[li] else z
        if li == cfg.n_encoder_layers - 1:
            reps = h
    cache = {"layer_inputs": layer_inputs, "pre_acts": pre_acts, "n": x.shape[0]}
    return reps, h, cache


def extract_features(params: EncoderParams, dataset) -> np.ndarray:
    """Frozen float64 representations of every sample of ``dataset``.

    Equal to `forward`'s representations bit for bit, but runs only the
    encoder layers: each is one matmul, then the bias and the ReLU applied
    in place, so no projection head is computed and no pre-activation or
    layer input is kept for a backward pass.  At most two layer outputs
    are alive at once.
    """
    cfg = params.config
    flags = cfg.relu_flags()
    h = _checked_inputs(params, dataset.flat_samples())
    for li in range(cfg.n_encoder_layers):
        h = h @ params.weights[li]
        h += params.biases[li]
        if flags[li]:
            np.maximum(h, 0, out=h)
    return h.astype(np.float64, copy=False)


def backward(params: EncoderParams, cache, grad_projections):
    """Exact reverse-mode gradients for every weight and bias.

    ``cache`` must come from a `forward` call on these parameters; a
    mismatched cache (different depth or layer widths) is rejected.
    Returns ``(grad_weights, grad_biases)`` matching the parameter lists:
    views into ``params.grad``, which the next call overwrites.
    """
    n_layers = len(params.weights)
    if (
        not isinstance(cache, dict)
        or len(cache.get("layer_inputs", ())) != n_layers
        or len(cache.get("pre_acts", ())) != n_layers
        or any(
            cache["layer_inputs"][li].shape[1] != params.weights[li].shape[0]
            for li in range(n_layers)
        )
    ):
        raise ValueError("cache does not match these parameters (stale or foreign)")

    g = np.asarray(grad_projections).astype(params.dtype, copy=False)
    if g.shape != (cache["n"], params.config.proj_out_dim):
        raise ValueError(
            f"grad_projections shape {g.shape} does not match forward output"
        )

    flags = params.config.relu_flags()
    grad_w, grad_b = params.grad_weights, params.grad_biases
    for li in range(n_layers - 1, -1, -1):
        if flags[li]:
            g = g * (cache["pre_acts"][li] > 0)
        np.matmul(cache["layer_inputs"][li].T, g, out=grad_w[li])
        g.sum(axis=0, out=grad_b[li])
        if li > 0:
            g = g @ params.weights[li].T
    return list(grad_w), list(grad_b)


def adam_step(params: EncoderParams, grads, opt: OptimizerConfig) -> EncoderParams:
    """One bias-corrected Adam update, in place; returns the params.

    Gradients that are not already the views `backward` returned are
    copied into ``params.grad`` first.  The finiteness checks and the
    update then run once each over the flat buffers.  Raises
    `DivergenceError` on non-finite gradients, before any weight, moment
    or step count moves, so a diverging run stops at the first bad step
    instead of polluting the weights.  Also raises it when a weight is
    not finite after the update, as any non-finite update entry or a
    learning rate that overflows the weight dtype leaves it; that check
    follows the update, so the weights are left as the step wrote them
    and a run that catches it has no weights worth keeping.
    """
    grad_w, grad_b = grads
    if len(grad_w) != len(params.weights) or len(grad_b) != len(params.biases):
        raise ValueError("gradient lists do not match parameter lists")
    for view, g in zip((*params.grad_weights, *params.grad_biases), (*grad_w, *grad_b)):
        if g is not view:
            view[...] = g
    g, m, v = params.grad, params.m, params.v
    if not np.all(np.isfinite(g)):
        raise DivergenceError("non-finite gradient encountered")

    params.step += 1
    t = params.step
    b1, b2 = opt.beta1, opt.beta2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * np.square(g)
    # lr * (m / corr1) / (sqrt(v / corr2) + eps) in two buffers: the same
    # operations in the same order, and the allocations saved pay for the
    # finiteness pass.  Overflow is reported by the check below.
    with np.errstate(over="ignore", invalid="ignore"):
        update = np.divide(m, corr1)
        update *= opt.learning_rate
        denom = np.divide(v, corr2)
        np.sqrt(denom, out=denom)
        denom += opt.eps
        update /= denom
        params.flat -= update
    if not np.isfinite(params.flat).all():
        raise DivergenceError(f"non-finite weights after Adam step {t} "
                              f"(learning_rate = {opt.learning_rate!r})")
    return params


# config block key -> required JSON type; bool is rejected where int is due
_CONFIG_KEYS = {
    "input_dim": int,
    "hidden_dims": list,
    "rep_dim": int,
    "proj_hidden_dim": int,
    "proj_out_dim": int,
    "activation": str,
    "seed": int,
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _config_from_json(doc, path) -> EncoderConfig:
    """Checked inverse of `_config_to_json`; raises ValueError, never allocates."""
    if not isinstance(doc, dict) or set(doc) != set(_CONFIG_KEYS):
        raise ValueError(f"{path}: checkpoint config block must hold exactly the keys "
                         f"{sorted(_CONFIG_KEYS)}")
    for key, kind in _CONFIG_KEYS.items():
        value = doc[key]
        ok = _is_int(value) if kind is int else isinstance(value, kind)
        if key == "hidden_dims":
            ok = ok and all(_is_int(d) for d in value)
        if not ok:
            raise ValueError(f"{path}: checkpoint config {key!r} has invalid value {value!r}")
    try:
        return EncoderConfig(**{**doc, "hidden_dims": tuple(doc["hidden_dims"])})
    except ValueError as exc:
        raise ValueError(f"{path}: checkpoint config: {exc}") from None


def _config_to_json(cfg: EncoderConfig) -> bytes:
    doc = {key: getattr(cfg, key) for key in _CONFIG_KEYS}
    doc["hidden_dims"] = list(cfg.hidden_dims)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(params: EncoderParams, path) -> None:
    """Write magic, format version, config block and float32 tensors.

    Tensor bytes are little-endian float32 in `layer_shapes` order (weight
    then bias per layer); shapes are recomputed from the config on load, so
    the file stores no per-tensor headers and round-trips byte-exactly.
    The bytes go to a temporary file beside ``path`` that replaces it only
    once complete, so a failed write never leaves a partial checkpoint.
    """
    cfg_bytes = _config_to_json(params.config)
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(cfg_bytes)))
        fh.write(cfg_bytes)
        for w, b in zip(params.weights, params.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f4").tobytes())


def load_checkpoint(path) -> EncoderParams:
    """Read a checkpoint back into float32 parameters with fresh Adam state.

    Raises `ValueError` naming ``path`` on a malformed file, including one
    whose tensors hold a NaN or an infinity.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    off = len(CHECKPOINT_MAGIC)
    try:
        (version,) = struct.unpack_from("<I", blob, off)
        off += 4
        (cfg_len,) = struct.unpack_from("<I", blob, off)
        off += 4
    except struct.error as exc:
        raise ValueError(f"{path}: truncated checkpoint header") from exc
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if off + cfg_len > len(blob):
        raise ValueError(f"{path}: truncated checkpoint config block")
    try:
        doc = json.loads(blob[off : off + cfg_len].decode("utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: checkpoint config block nests too deeply") from None
    except ValueError as exc:  # undecodable UTF-8 or malformed JSON
        raise ValueError(f"{path}: checkpoint config block is not JSON text: {exc}") from None
    cfg = _config_from_json(doc, path)
    off += cfg_len
    payload = 4 * _n_values(cfg)
    if len(blob) - off < payload:
        raise ValueError(f"{path}: truncated checkpoint tensor data")
    if len(blob) - off > payload:
        raise ValueError(f"{path}: trailing bytes after checkpoint payload")
    flat = np.frombuffer(blob, dtype="<f4", offset=off).astype(np.float32)
    if not np.isfinite(flat).all():
        raise ValueError(f"{path}: checkpoint tensors hold non-finite values")
    return _with_fresh_adam(cfg, flat)
