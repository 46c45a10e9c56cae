"""A small MLP encoder with a non-linear projection head, trained by Adam.

The encoder maps inputs to the representation used for downstream probing;
the projection head maps that representation to the (smaller) space where
the training loss compares views.  Only the representation survives
evaluation, the head is discarded.

Everything is plain numpy: `forward` caches activations, `backward` runs
exact reverse mode through both stacks, `adam_step` applies the standard
bias-corrected update.  Weights train in float32 by default; pass
``dtype=np.float64`` to `init_params` for gradient-check precision.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EncoderConfig",
    "OptimizerConfig",
    "EncoderParams",
    "DivergenceError",
    "init_params",
    "forward",
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
    """Weights, biases and Adam state, in `EncoderConfig.layer_shapes` order."""

    config: EncoderConfig
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    m_weights: list[np.ndarray] = field(repr=False, default_factory=list)
    v_weights: list[np.ndarray] = field(repr=False, default_factory=list)
    m_biases: list[np.ndarray] = field(repr=False, default_factory=list)
    v_biases: list[np.ndarray] = field(repr=False, default_factory=list)
    step: int = 0

    @property
    def dtype(self) -> np.dtype:
        return self.weights[0].dtype


def init_params(cfg: EncoderConfig, dtype=np.float32) -> EncoderParams:
    """He-uniform weights from the seeded generator, zero biases, zero Adam
    state.  Bit-reproducible for a given seed and dtype."""
    rng = np.random.default_rng(cfg.seed)
    weights, biases = [], []
    for fan_in, fan_out in cfg.layer_shapes():
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype))
        biases.append(np.zeros(fan_out, dtype=dtype))
    return _with_fresh_adam(cfg, weights, biases)


def _with_fresh_adam(cfg: EncoderConfig, weights, biases) -> EncoderParams:
    """Wrap weights and biases with zeroed Adam moments at step 0."""
    return EncoderParams(
        config=cfg,
        weights=weights,
        biases=biases,
        m_weights=[np.zeros_like(w) for w in weights],
        v_weights=[np.zeros_like(w) for w in weights],
        m_biases=[np.zeros_like(b) for b in biases],
        v_biases=[np.zeros_like(b) for b in biases],
    )


def forward(params: EncoderParams, inputs):
    """Run the encoder and projection head.

    Returns ``(representations, projections, cache)``; the cache feeds
    `backward`.  Inputs are cast to the parameter dtype.
    """
    cfg = params.config
    x = np.asarray(inputs)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ValueError(
            f"inputs must be (n, {cfg.input_dim}), got shape {x.shape}"
        )
    x = x.astype(params.dtype, copy=False)

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


def backward(params: EncoderParams, cache, grad_projections):
    """Exact reverse-mode gradients for every weight and bias.

    ``cache`` must come from a `forward` call on these parameters; a
    mismatched cache (different depth or layer widths) is rejected.
    Returns ``(grad_weights, grad_biases)`` matching the parameter lists.
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
    grad_w = [None] * n_layers
    grad_b = [None] * n_layers
    for li in range(n_layers - 1, -1, -1):
        if flags[li]:
            g = g * (cache["pre_acts"][li] > 0)
        grad_w[li] = cache["layer_inputs"][li].T @ g
        grad_b[li] = g.sum(axis=0)
        if li > 0:
            g = g @ params.weights[li].T
    return grad_w, grad_b


def adam_step(params: EncoderParams, grads, opt: OptimizerConfig) -> EncoderParams:
    """One bias-corrected Adam update, in place; returns the params.

    Raises `DivergenceError` on non-finite gradients so a diverging run
    stops at the first bad step instead of polluting the weights.
    """
    grad_w, grad_b = grads
    if len(grad_w) != len(params.weights) or len(grad_b) != len(params.biases):
        raise ValueError("gradient lists do not match parameter lists")
    for g in (*grad_w, *grad_b):
        if not np.all(np.isfinite(g)):
            raise DivergenceError("non-finite gradient encountered")

    params.step += 1
    t = params.step
    b1, b2 = opt.beta1, opt.beta2
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t
    for p, g, m, v in (
        *zip(params.weights, grad_w, params.m_weights, params.v_weights),
        *zip(params.biases, grad_b, params.m_biases, params.v_biases),
    ):
        g = np.asarray(g, dtype=p.dtype)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        p -= opt.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + opt.eps)
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
    return EncoderConfig(**{**doc, "hidden_dims": tuple(doc["hidden_dims"])})


def _config_to_json(cfg: EncoderConfig) -> bytes:
    doc = {key: getattr(cfg, key) for key in _CONFIG_KEYS}
    doc["hidden_dims"] = list(cfg.hidden_dims)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(params: EncoderParams, path) -> None:
    """Write magic, format version, config block and float32 tensors.

    Tensor bytes are little-endian float32 in `layer_shapes` order (weight
    then bias per layer); shapes are recomputed from the config on load, so
    the file stores no per-tensor headers and round-trips byte-exactly.
    """
    cfg_bytes = _config_to_json(params.config)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(cfg_bytes)))
        fh.write(cfg_bytes)
        for w, b in zip(params.weights, params.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f4").tobytes())


def load_checkpoint(path) -> EncoderParams:
    """Read a checkpoint back into float32 parameters with fresh Adam state."""
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
    cfg = _config_from_json(json.loads(blob[off : off + cfg_len].decode("utf-8")), path)
    off += cfg_len
    shapes = [shape for fan_in, fan_out in cfg.layer_shapes()
              for shape in ((fan_in, fan_out), (fan_out,))]
    payload = 4 * sum(math.prod(shape) for shape in shapes)
    if len(blob) - off < payload:
        raise ValueError(f"{path}: truncated checkpoint tensor data")
    if len(blob) - off > payload:
        raise ValueError(f"{path}: trailing bytes after checkpoint payload")
    tensors = []
    for shape in shapes:
        count = math.prod(shape)
        flat = np.frombuffer(blob, dtype="<f4", count=count, offset=off)
        tensors.append(flat.reshape(shape).astype(np.float32))
        off += 4 * count
    return _with_fresh_adam(cfg, tensors[0::2], tensors[1::2])
