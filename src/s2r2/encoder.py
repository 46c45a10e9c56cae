"""A small MLP encoder with a non-linear projection head, trained by Adam.

The encoder maps inputs to the representation used for downstream probing;
the projection head maps that representation to the (smaller) space where
the training loss compares views.  Only the representation survives
evaluation, the head is discarded.

Everything is plain numpy.  Every layer of both stacks is one pass of
one loop: a matmul, then the bias and, after a hidden layer, the ReLU in
place.  `forward` caches each layer's input, `backward` runs exact
reverse mode through both stacks from that cache alone, and `adam_step`
applies the standard bias-corrected update.  The weights and biases,
both Adam moments and the gradients each live in one flat buffer, in
checkpoint order, and the per-layer weights and gradients are views into
theirs; so `backward` writes its gradients in place into ``params.grad``,
and ``adam_step(params, opt)`` reads that buffer, checking and updating
every tensor in one pass of whole-buffer operations.  Evaluation needs
only the representations, so `extract_features`, the one home of frozen
features, runs the same loop over the encoder layers alone, with no
cache and no projection head.
Weights train in float32 by default; pass ``dtype=np.float64`` to
`init_params` for gradient-check precision.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass, field

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
CHECKPOINT_VERSION = 2


class DivergenceError(RuntimeError):
    """Training produced non-finite numbers; the run cannot continue."""


@dataclass
class EncoderConfig:
    """Layer widths of the encoder stack and projection head: the four
    ``[encoder]`` keys.  The input width and the init seed are derived
    values, so they are `init_params` arguments, not fields.

    ``hidden_dims`` may be empty, leaving a single linear layer into the
    representation.  Hidden layers use ReLU; the representation layer and
    the projection output are linear; the projection hidden layer is ReLU.
    """

    hidden_dims: tuple[int, ...] = (128,)
    rep_dim: int = 64
    proj_hidden_dim: int = 64
    proj_out_dim: int = 64

    def __post_init__(self) -> None:
        self.hidden_dims = tuple(self.hidden_dims)
        names = [f"hidden_dims[{i}]" for i in range(len(self.hidden_dims))]
        names += ["rep_dim", "proj_hidden_dim", "proj_out_dim"]
        widths = (*self.hidden_dims, self.rep_dim, self.proj_hidden_dim, self.proj_out_dim)
        # a width that is text, as from hidden_dims="128", is ExperimentConfig's to refuse
        for name, width in zip(names, widths):
            if not isinstance(width, str) and width < 1:  # named, not echoed: it may be long
                raise ValueError(f"layer widths must be >= 1, got {name} < 1")

    @property
    def n_encoder_layers(self) -> int:
        return len(self.hidden_dims) + 1

    def layer_shapes(self, input_dim: int) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per layer on inputs of width ``input_dim``:
        encoder stack, then projection head."""
        if input_dim < 1:
            raise ValueError("input width must be >= 1, got input_dim < 1")
        enc = [input_dim, *self.hidden_dims, self.rep_dim]
        proj = [self.rep_dim, self.proj_hidden_dim, self.proj_out_dim]
        return list(zip(enc[:-1], enc[1:])) + list(zip(proj[:-1], proj[1:]))

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

    Four flat buffers share the checkpoint layout (each layer's weight,
    then its bias): ``flat`` holds the weights and biases, ``m`` and ``v``
    the Adam moments, and ``grad`` the gradients that `backward` writes.
    The per-layer tensors are views into ``flat`` and ``grad``; Adam reads
    only whole buffers.  ``input_dim`` is the width of the inputs.  Build
    them with `init_params` or `load_checkpoint`.
    """

    config: EncoderConfig
    input_dim: int
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(repr=False)
    m: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    grad: np.ndarray = field(repr=False)
    grad_weights: list[np.ndarray] = field(repr=False)
    grad_biases: list[np.ndarray] = field(repr=False)
    step: int = 0

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype


def _layer_views(cfg: EncoderConfig, input_dim: int, buffer: np.ndarray):
    """``(weights, biases)``: views of a flat buffer in checkpoint order."""
    weights, biases, off = [], [], 0
    for fan_in, fan_out in cfg.layer_shapes(input_dim):
        weights.append(buffer[off : off + fan_in * fan_out].reshape(fan_in, fan_out))
        off += fan_in * fan_out
        biases.append(buffer[off : off + fan_out])
        off += fan_out
    return weights, biases


def _n_values(cfg: EncoderConfig, input_dim: int) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in cfg.layer_shapes(input_dim))


def init_params(cfg: EncoderConfig, input_dim: int, seed: int, dtype=np.float32) -> EncoderParams:
    """He-uniform weights for inputs of width ``input_dim`` from a generator
    seeded with ``seed``, zero biases, zero Adam state.  Bit-reproducible
    for a given seed and dtype."""
    rng = np.random.default_rng(seed)
    flat = np.zeros(_n_values(cfg, input_dim), dtype=dtype)
    for w in _layer_views(cfg, input_dim, flat)[0]:
        limit = np.sqrt(6.0 / w.shape[0])
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return _with_fresh_adam(cfg, input_dim, flat)


def _with_fresh_adam(cfg: EncoderConfig, input_dim: int, flat: np.ndarray) -> EncoderParams:
    """Wrap a flat weight-and-bias buffer with zeroed Adam moments and
    gradients at step 0."""
    grad = np.zeros_like(flat)
    weights, biases = _layer_views(cfg, input_dim, flat)
    grad_weights, grad_biases = _layer_views(cfg, input_dim, grad)
    return EncoderParams(
        config=cfg, input_dim=input_dim, weights=weights, biases=biases, flat=flat,
        m=np.zeros_like(flat), v=np.zeros_like(flat), grad=grad, grad_weights=grad_weights,
        grad_biases=grad_biases,
    )


def _checked_inputs(params: EncoderParams, inputs) -> np.ndarray:
    """Check that ``inputs`` is (n, input_dim) and cast it to the parameter
    dtype; raises `ValueError` if an entry overflows that dtype."""
    x = np.asarray(inputs)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(f"inputs must be (n, {params.input_dim}), got shape {x.shape}")
    try:
        with np.errstate(over="raise"):
            return x.astype(params.dtype, copy=False)
    except FloatingPointError:
        raise ValueError(f"the encoder inputs overflow {params.dtype}") from None


def _run_layers(params: EncoderParams, h: np.ndarray, layers: range, inputs=None) -> np.ndarray:
    """Run ``h`` through ``layers``, the one home of a layer: a matmul, then
    the bias and, where `EncoderConfig.relu_flags` says so, the ReLU in
    place, so at most two layer outputs are alive at once.  Appends each
    layer's input to the list ``inputs`` when one is given.  Overflow is
    left to the caller's finiteness check."""
    flags = params.config.relu_flags()
    with np.errstate(over="ignore", invalid="ignore"):
        for li in layers:
            if inputs is not None:
                inputs.append(h)
            h = h @ params.weights[li]
            h += params.biases[li]
            if flags[li]:
                np.maximum(h, 0, out=h)
    return h


def forward(params: EncoderParams, inputs):
    """Run the encoder and projection head.

    Returns ``(representations, projections, cache)``; the cache, the list
    of every layer's input, feeds `backward`.  Inputs are cast to the
    parameter dtype.  Raises `DivergenceError` when a projection is not
    finite: a too-large learning rate can leave weights finite but so
    large that the layer products overflow.
    """
    n_enc = params.config.n_encoder_layers
    cache = []
    reps = _run_layers(params, _checked_inputs(params, inputs), range(n_enc), cache)
    projections = _run_layers(params, reps, range(n_enc, len(params.weights)), cache)
    _check_finite(projections, "projections")
    return reps, projections, cache


def _check_finite(outputs: np.ndarray, what: str) -> None:
    """Raise `DivergenceError` unless every entry of ``outputs`` is finite."""
    if not np.isfinite(outputs).all():
        raise DivergenceError(f"non-finite {what}: the encoder weights overflow {outputs.dtype}")


def extract_features(params: EncoderParams, dataset) -> np.ndarray:
    """Frozen float64 representations of every sample of ``dataset``.

    Equal to `forward`'s representations bit for bit: the same layer loop
    over the encoder layers alone, so no projection head is computed and
    no layer input is kept for a backward pass.  Raises `DivergenceError`,
    as `forward` does, when a representation is not finite.
    """
    # the cast inputs go in unnamed, so the loop frees them after the first layer
    reps = _run_layers(params, _checked_inputs(params, dataset.flat_samples()),
                       range(params.config.n_encoder_layers))
    _check_finite(reps, "representations")
    return reps.astype(np.float64, copy=False)


def backward(params: EncoderParams, cache, grad_projections) -> None:
    """Exact reverse-mode gradients for every weight and bias, written in
    place into ``params.grad``, where `adam_step` reads them; returns
    nothing.

    ``cache`` must come from a `forward` call on these parameters; a
    mismatched cache (different depth or layer widths) is rejected.  A
    ReLU layer is never the last, so its mask is read from the next
    layer's input: ``relu(z) > 0`` exactly where ``z > 0``.  Overflow is
    left to `adam_step`'s finiteness check.
    """
    n_layers = len(params.weights)
    if (
        not isinstance(cache, list)
        or len(cache) != n_layers
        or any(h.shape[1] != w.shape[0] for h, w in zip(cache, params.weights))
    ):
        raise ValueError("cache does not match these parameters (stale or foreign)")

    flags = params.config.relu_flags()
    grad_w, grad_b = params.grad_weights, params.grad_biases
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.asarray(grad_projections).astype(params.dtype, copy=False)
        if g.shape != (cache[0].shape[0], params.config.proj_out_dim):
            raise ValueError(f"grad_projections shape {g.shape} does not match forward output")
        for li in range(n_layers - 1, -1, -1):
            if flags[li]:
                g = g * (cache[li + 1] > 0)
            np.matmul(cache[li].T, g, out=grad_w[li])
            g.sum(axis=0, out=grad_b[li])
            if li > 0:
                g = g @ params.weights[li].T


def adam_step(params: EncoderParams, opt: OptimizerConfig) -> EncoderParams:
    """One bias-corrected Adam update, in place; returns the params.

    Reads the gradients from ``params.grad``, where `backward` writes
    them.  The finiteness checks and the update run once each over the
    flat buffers.  Raises `DivergenceError` on non-finite gradients,
    before any weight, moment or step count moves, so a diverging run
    stops at the first bad step instead of polluting the weights.  Also
    raises it when a weight is not finite after the update, as any
    non-finite update entry or a learning rate that overflows the weight
    dtype leaves it; that check follows the update, so the weights are
    left as the step wrote them and a run that catches it has no weights
    worth keeping.
    """
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
        raise DivergenceError(f"non-finite weights after the Adam update "
                              f"(learning_rate = {opt.learning_rate!r})")
    return params


# the config block's keys, in sorted order, as `_config_to_json` writes them
_CONFIG_KEYS = ("hidden_dims", "input_dim", "proj_hidden_dim", "proj_out_dim", "rep_dim")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _config_from_json(doc, path) -> tuple[EncoderConfig, int]:
    """Checked inverse of `_config_to_json`: ``(config, input_dim)``; raises
    ValueError naming a bad key, never its value, and never allocates."""
    if not isinstance(doc, dict) or set(doc) != set(_CONFIG_KEYS):
        raise ValueError(f"{path}: checkpoint config block must hold exactly the keys "
                         f"{list(_CONFIG_KEYS)}")
    for key in _CONFIG_KEYS:
        # hidden_dims holds a list of ints, every other key an int; a bool is refused
        values = doc[key] if key == "hidden_dims" else [doc[key]]
        if not (isinstance(values, list) and all(map(_is_int, values))):
            kind = "a list of integers" if key == "hidden_dims" else "an integer"
            raise ValueError(f"{path}: checkpoint config {key!r} is not {kind}")
    try:
        cfg = EncoderConfig(**{key: doc[key] for key in _CONFIG_KEYS if key != "input_dim"})
        cfg.layer_shapes(doc["input_dim"])  # refuses an input width below 1
    except ValueError as exc:
        raise ValueError(f"{path}: checkpoint config: {exc}") from None
    return cfg, doc["input_dim"]


def _config_to_json(params: EncoderParams) -> bytes:
    doc = {**asdict(params.config), "input_dim": params.input_dim}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(params: EncoderParams, path) -> None:
    """Write magic, format version, config block and float32 tensors.

    The config block is sorted compact JSON of the four `EncoderConfig`
    widths and ``input_dim``.  Tensor bytes are little-endian float32 in
    `layer_shapes` order (weight then bias per layer), the order of
    ``params.flat``, so they go out in one write; shapes are recomputed
    from the config on load, so the file stores no per-tensor headers and
    round-trips byte-exactly.
    The bytes go to a temporary file beside ``path`` that replaces it only
    once complete, so a failed write never leaves a partial checkpoint.
    """
    cfg_bytes = _config_to_json(params)
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(cfg_bytes)))
        fh.write(cfg_bytes)
        fh.write(params.flat.astype("<f4", copy=False).tobytes())


def load_checkpoint(path) -> EncoderParams:
    """Read a checkpoint back into float32 parameters with fresh Adam state.

    Reads format version 2 only.  Raises `ValueError` naming ``path`` on
    a malformed file: one of any other version, or one whose tensors hold
    a NaN or an infinity.  The magic and the header are read first, and each
    block only once the file's size holds it, so a bad file costs no more
    memory than its header declares.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        off = len(CHECKPOINT_MAGIC)
        head = fh.read(off + 8)
        if head[:off] != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic)")
        if len(head) < off + 8:
            raise ValueError(f"{path}: truncated checkpoint header")
        version, cfg_len = struct.unpack_from("<II", head, off)
        off += 8
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        if off + cfg_len > size:
            raise ValueError(f"{path}: truncated checkpoint config block")
        try:
            doc = json.loads(fh.read(cfg_len).decode("utf-8"))
        except RecursionError:
            raise ValueError(f"{path}: checkpoint config block nests too deeply") from None
        except ValueError as exc:  # undecodable UTF-8 or malformed JSON
            if str(exc).startswith("Exceeds the limit"):  # past the int-to-text digit limit
                raise ValueError(f"{path}: checkpoint config block: the integer has too many "
                                 f"digits") from None
            raise ValueError(f"{path}: checkpoint config block is not JSON text: {exc}") from None
        cfg, input_dim = _config_from_json(doc, path)
        off += cfg_len
        payload = 4 * _n_values(cfg, input_dim)
        if size - off < payload:
            raise ValueError(f"{path}: truncated checkpoint tensor data")
        if size - off > payload:
            raise ValueError(f"{path}: trailing bytes after checkpoint payload")
        blob = fh.read(payload)
    flat = np.frombuffer(blob, dtype="<f4").astype(np.float32)
    if not np.isfinite(flat).all():
        raise ValueError(f"{path}: checkpoint tensors hold non-finite values")
    return _with_fresh_adam(cfg, input_dim, flat)
