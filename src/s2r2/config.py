"""Flat key-value experiment configuration.

Grammar, one statement per line::

    # comment
    [section]
    key = value

Values are integers (``16``), reals (``0.01``, ``1e-4``), booleans
(``true``/``false``), strings (bare token or double-quoted), or
comma-separated integer lists (``128,64``).  ``#`` starts a comment
outside quotes.  Unknown sections or keys are errors, not warnings, so a
typo cannot silently fall back to a default.

`render_config` writes the fully normalized form (every key, canonical
order); parsing its output yields an equal `ExperimentConfig`, and runs
echo it next to their artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .contrastive import ContrastiveConfig
from .data import SyntheticSpec
from .encoder import OptimizerConfig
from .probe import ProbeConfig
from .ranking import SmoothingConfig
from .views import AugmentationPolicy

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "render_config",
    "with_overrides",
]

LOSSES = ("s2r2", "infonce")


class ConfigError(ValueError):
    """Config text that does not parse or violates a field constraint."""


def _default_synthetic() -> SyntheticSpec:
    return SyntheticSpec(num_classes=10, dim=64, samples_per_class=500)


@dataclass
class ExperimentConfig:
    """Everything a run needs: data, model, objective, budget, outputs.

    `seed` is the root of all randomness; per-component seeds (data
    generation, augmentation, weight init, probe) are derived from it by
    the runner, so configs never carry more than one seed.  The encoder
    input width always comes from the dataset, hence no input_dim here.
    """

    dataset_kind: str = "synthetic"
    synthetic: SyntheticSpec = field(default_factory=_default_synthetic)
    image_path: str = ""
    train_fraction: float = 0.8
    hidden_dims: tuple[int, ...] = (128,)
    rep_dim: int = 64
    proj_hidden_dim: int = 64
    proj_out_dim: int = 64
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)
    contrastive: ContrastiveConfig = field(default_factory=ContrastiveConfig)
    augmentation: AugmentationPolicy = field(default_factory=AugmentationPolicy)
    probe: ProbeConfig = field(default_factory=ProbeConfig)
    loss: str = "s2r2"
    B: int = 16
    K: int = 8
    steps: int = 200
    eval_every: int = 50
    seed: int = 0
    output_dir: str = "run_out"
    deterministic: bool = False

    def __post_init__(self) -> None:
        if self.dataset_kind not in ("synthetic", "images"):
            raise ConfigError(f"dataset kind must be synthetic or images, got {self.dataset_kind!r}")
        if self.dataset_kind == "images" and not self.image_path:
            raise ConfigError("dataset kind images requires a path")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must lie in (0, 1), got {self.train_fraction}")
        if self.loss not in LOSSES:
            raise ConfigError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        widths = (*self.hidden_dims, self.rep_dim, self.proj_hidden_dim, self.proj_out_dim)
        if min(widths) < 1:
            raise ConfigError(
                f"layer widths must be >= 1, got hidden_dims={self.hidden_dims}, "
                f"rep_dim={self.rep_dim}, proj_hidden_dim={self.proj_hidden_dim}, "
                f"proj_out_dim={self.proj_out_dim}"
            )
        if self.B < 2 or self.K < 2:
            raise ConfigError(f"B and K must be >= 2, got B={self.B}, K={self.K}")
        if self.loss == "infonce" and self.K % 2:
            raise ConfigError(f"loss infonce pairs adjacent views, so K must be even, got K={self.K}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if not 1 <= self.eval_every <= self.steps:
            raise ConfigError(
                f"eval_every must lie in [1, steps], got eval_every={self.eval_every}, steps={self.steps}"
            )
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")


# (section, key, kind, path) in canonical echo order, read by both
# parse_config and render_config.  kind is int/real/bool/str/ints; path is
# the ExperimentConfig attribute, dotted through a sub-config and into a
# pair by index.  An unset output_size (None) renders as zeros.
_FIELDS = [
    ("dataset", "kind", "str", "dataset_kind"),
    ("dataset", "path", "str", "image_path"),
    ("dataset", "num_classes", "int", "synthetic.num_classes"),
    ("dataset", "dim", "int", "synthetic.dim"),
    ("dataset", "samples_per_class", "int", "synthetic.samples_per_class"),
    ("dataset", "cluster_spread", "real", "synthetic.cluster_spread"),
    ("dataset", "center_scale", "real", "synthetic.center_scale"),
    ("dataset", "composition", "str", "synthetic.composition"),
    ("dataset", "mix_count", "int", "synthetic.mix_count"),
    ("dataset", "train_fraction", "real", "train_fraction"),
    ("encoder", "hidden_dims", "ints", "hidden_dims"),
    ("encoder", "rep_dim", "int", "rep_dim"),
    ("encoder", "proj_hidden_dim", "int", "proj_hidden_dim"),
    ("encoder", "proj_out_dim", "int", "proj_out_dim"),
    ("optimizer", "learning_rate", "real", "optimizer.learning_rate"),
    ("optimizer", "beta1", "real", "optimizer.beta1"),
    ("optimizer", "beta2", "real", "optimizer.beta2"),
    ("optimizer", "eps", "real", "optimizer.eps"),
    ("smoothing", "tau", "real", "smoothing.tau"),
    ("smoothing", "smooth_numerator", "bool", "smoothing.smooth_numerator"),
    ("contrastive", "temperature", "real", "contrastive.temperature"),
    ("contrastive", "pairing", "str", "contrastive.pairing"),
    ("augmentation", "noise_std", "real", "augmentation.noise_std"),
    ("augmentation", "scale_jitter", "real", "augmentation.scale_jitter"),
    ("augmentation", "coordinate_dropout_prob", "real", "augmentation.coordinate_dropout_prob"),
    ("augmentation", "crop_area_min", "real", "augmentation.crop_area_range.0"),
    ("augmentation", "crop_area_max", "real", "augmentation.crop_area_range.1"),
    ("augmentation", "output_height", "int", "augmentation.output_size.0"),
    ("augmentation", "output_width", "int", "augmentation.output_size.1"),
    ("augmentation", "flip_prob", "real", "augmentation.flip_prob"),
    ("augmentation", "color_jitter_strength", "real", "augmentation.color_jitter_strength"),
    ("augmentation", "grayscale_prob", "real", "augmentation.grayscale_prob"),
    ("probe", "epochs", "int", "probe.epochs"),
    ("probe", "learning_rate", "real", "probe.learning_rate"),
    ("probe", "l2_penalty", "real", "probe.l2_penalty"),
    ("run", "loss", "str", "loss"),
    ("run", "B", "int", "B"),
    ("run", "K", "int", "K"),
    ("run", "steps", "int", "steps"),
    ("run", "eval_every", "int", "eval_every"),
    ("run", "seed", "int", "seed"),
    ("run", "output_dir", "str", "output_dir"),
    ("run", "deterministic", "bool", "deterministic"),
]

_ROWS = {(section, key): (kind, path) for section, key, kind, path in _FIELDS}
_SECTIONS = {section for section, _, _, _ in _FIELDS}


def _strip_comment(raw: str) -> str:
    out = []
    quoted = False
    for ch in raw:
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out).strip()


def _parse_value(kind: str, raw: str, where: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "real":
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError("not a finite number")
            return value
        if kind == "bool":
            if raw not in ("true", "false"):
                raise ValueError("expected true or false")
            return raw == "true"
        if kind == "ints":
            raw = raw.strip()
            return tuple(int(tok) for tok in raw.split(",") if tok.strip()) if raw else ()
        if raw.startswith('"') or raw.endswith('"'):
            if len(raw) < 2 or not (raw.startswith('"') and raw.endswith('"')):
                raise ValueError("unbalanced quotes")
            return raw[1:-1]
        return raw
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {kind} ({exc})") from None


def _parse_sections(text: str) -> dict[str, object]:
    """The values set in ``text``, keyed by their `_FIELDS` path."""
    values: dict[str, object] = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stmt = _strip_comment(line)
        if not stmt:
            continue
        if stmt.startswith("["):
            if not stmt.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {stmt!r}")
            section = stmt[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in stmt:
            raise ConfigError(f"line {lineno}: expected key = value, got {stmt!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, raw = (part.strip() for part in stmt.split("=", 1))
        if (section, key) not in _ROWS:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        kind, path = _ROWS[section, key]
        if path in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in section [{section}]")
        values[path] = _parse_value(kind, raw, f"line {lineno}, {section}.{key}")
    return values


def _resolve(config, path: str):
    """The value at a `_FIELDS` path; an unset optional pair reads as zeros."""
    value = config
    for name in path.split("."):
        if name.isdigit():
            value = 0 if value is None else value[int(name)]
        else:
            value = getattr(value, name)
    return value


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text; unset keys take their documented defaults.

    Each value goes to its `_FIELDS` path on the default config.  Values
    are grouped by the object that owns them, and each owner is rebuilt
    once, deepest first: a pair from its index rows, a dataclass by
    `dataclasses.replace`, so every ``__post_init__`` check sees the
    final values.
    """
    base = ExperimentConfig()
    owned: dict[str, dict] = {"": {}}  # owner path -> {attribute or index: value}
    for path, value in _parse_sections(text).items():
        owner, _, name = path.rpartition(".")
        owned.setdefault(owner, {})[name] = value
    try:
        while len(owned) > 1:
            owner = max(owned, key=len)  # deepest first: a path outgrows its owner's
            changes, default = owned.pop(owner), _resolve(base, owner)
            if default is None or isinstance(default, tuple):
                value = tuple(changes.get(str(i), _resolve(base, f"{owner}.{i}")) for i in (0, 1))
                if default is None and 0 in value:  # an optional pair: both sides or neither
                    if any(value):
                        keys = [key for _, key, _, path in _FIELDS if path.startswith(owner + ".")]
                        raise ConfigError(f"{' and '.join(keys)} must be set together")
                    value = None
            else:
                value = replace(default, **changes)
            parent, _, name = owner.rpartition(".")
            owned.setdefault(parent, {})[name] = value
        return replace(base, **owned[""])
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _render_value(kind: str, value) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "ints":
        return ",".join(str(v) for v in value)
    if kind == "real":
        return repr(float(value))
    if kind == "str":
        return f'"{value}"' if (value == "" or any(c in value for c in ' #"[]=')) else str(value)
    return str(value)


def render_config(config: ExperimentConfig) -> str:
    """Normalized text form: all keys, canonical order; reparses equal."""
    lines = []
    current = None
    for section, key, kind, path in _FIELDS:
        if section != current:
            if current is not None:
                lines.append("")
            lines.append(f"[{section}]")
            current = section
        lines.append(f"{key} = {_render_value(kind, _resolve(config, path))}")
    return "\n".join(lines) + "\n"


def with_overrides(config: ExperimentConfig, seed=None, output_dir=None, deterministic=None) -> ExperimentConfig:
    """CLI flags layered over a parsed config."""
    kwargs = {}
    if seed is not None:
        kwargs["seed"] = seed
    if output_dir is not None:
        kwargs["output_dir"] = str(output_dir)
    if deterministic is not None:
        kwargs["deterministic"] = deterministic
    return replace(config, **kwargs) if kwargs else config
