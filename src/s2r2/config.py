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
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if not 1 <= self.eval_every <= self.steps:
            raise ConfigError(
                f"eval_every must lie in [1, steps], got eval_every={self.eval_every}, steps={self.steps}"
            )
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")


# (section, key, kind, fetch from config) in canonical echo order.  kind
# is one of int/real/bool/str/ints and drives both parsing and rendering.
_FIELDS = [
    ("dataset", "kind", "str", lambda c: c.dataset_kind),
    ("dataset", "path", "str", lambda c: c.image_path),
    ("dataset", "num_classes", "int", lambda c: c.synthetic.num_classes),
    ("dataset", "dim", "int", lambda c: c.synthetic.dim),
    ("dataset", "samples_per_class", "int", lambda c: c.synthetic.samples_per_class),
    ("dataset", "cluster_spread", "real", lambda c: c.synthetic.cluster_spread),
    ("dataset", "center_scale", "real", lambda c: c.synthetic.center_scale),
    ("dataset", "composition", "str", lambda c: c.synthetic.composition),
    ("dataset", "mix_count", "int", lambda c: c.synthetic.mix_count),
    ("dataset", "train_fraction", "real", lambda c: c.train_fraction),
    ("encoder", "hidden_dims", "ints", lambda c: c.hidden_dims),
    ("encoder", "rep_dim", "int", lambda c: c.rep_dim),
    ("encoder", "proj_hidden_dim", "int", lambda c: c.proj_hidden_dim),
    ("encoder", "proj_out_dim", "int", lambda c: c.proj_out_dim),
    ("optimizer", "learning_rate", "real", lambda c: c.optimizer.learning_rate),
    ("optimizer", "beta1", "real", lambda c: c.optimizer.beta1),
    ("optimizer", "beta2", "real", lambda c: c.optimizer.beta2),
    ("optimizer", "eps", "real", lambda c: c.optimizer.eps),
    ("smoothing", "tau", "real", lambda c: c.smoothing.tau),
    ("smoothing", "smooth_numerator", "bool", lambda c: c.smoothing.smooth_numerator),
    ("contrastive", "temperature", "real", lambda c: c.contrastive.temperature),
    ("contrastive", "pairing", "str", lambda c: c.contrastive.pairing),
    ("augmentation", "noise_std", "real", lambda c: c.augmentation.noise_std),
    ("augmentation", "scale_jitter", "real", lambda c: c.augmentation.scale_jitter),
    ("augmentation", "coordinate_dropout_prob", "real", lambda c: c.augmentation.coordinate_dropout_prob),
    ("augmentation", "crop_area_min", "real", lambda c: c.augmentation.crop_area_range[0]),
    ("augmentation", "crop_area_max", "real", lambda c: c.augmentation.crop_area_range[1]),
    ("augmentation", "output_height", "int",
     lambda c: 0 if c.augmentation.output_size is None else c.augmentation.output_size[0]),
    ("augmentation", "output_width", "int",
     lambda c: 0 if c.augmentation.output_size is None else c.augmentation.output_size[1]),
    ("augmentation", "flip_prob", "real", lambda c: c.augmentation.flip_prob),
    ("augmentation", "color_jitter_strength", "real", lambda c: c.augmentation.color_jitter_strength),
    ("augmentation", "grayscale_prob", "real", lambda c: c.augmentation.grayscale_prob),
    ("probe", "epochs", "int", lambda c: c.probe.epochs),
    ("probe", "learning_rate", "real", lambda c: c.probe.learning_rate),
    ("probe", "l2_penalty", "real", lambda c: c.probe.l2_penalty),
    ("run", "loss", "str", lambda c: c.loss),
    ("run", "B", "int", lambda c: c.B),
    ("run", "K", "int", lambda c: c.K),
    ("run", "steps", "int", lambda c: c.steps),
    ("run", "eval_every", "int", lambda c: c.eval_every),
    ("run", "seed", "int", lambda c: c.seed),
    ("run", "output_dir", "str", lambda c: c.output_dir),
    ("run", "deterministic", "bool", lambda c: c.deterministic),
]

_KINDS = {(section, key): kind for section, key, kind, _ in _FIELDS}
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


def _parse_sections(text: str) -> dict[tuple[str, str], object]:
    values: dict[tuple[str, str], object] = {}
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
        kind = _KINDS.get((section, key))
        if kind is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        if (section, key) in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in section [{section}]")
        values[(section, key)] = _parse_value(kind, raw, f"line {lineno}, {section}.{key}")
    return values


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text; unset keys take their documented defaults."""
    v = _parse_sections(text)
    base = ExperimentConfig()

    def get(section, key, default):
        return v.get((section, key), default)

    try:
        synthetic = SyntheticSpec(
            num_classes=get("dataset", "num_classes", base.synthetic.num_classes),
            dim=get("dataset", "dim", base.synthetic.dim),
            samples_per_class=get("dataset", "samples_per_class", base.synthetic.samples_per_class),
            cluster_spread=get("dataset", "cluster_spread", base.synthetic.cluster_spread),
            center_scale=get("dataset", "center_scale", base.synthetic.center_scale),
            composition=get("dataset", "composition", base.synthetic.composition),
            mix_count=get("dataset", "mix_count", base.synthetic.mix_count),
        )
        out_h = get("augmentation", "output_height", 0)
        out_w = get("augmentation", "output_width", 0)
        if (out_h == 0) != (out_w == 0):
            raise ConfigError("output_height and output_width must be set together")
        augmentation = AugmentationPolicy(
            noise_std=get("augmentation", "noise_std", base.augmentation.noise_std),
            scale_jitter=get("augmentation", "scale_jitter", base.augmentation.scale_jitter),
            coordinate_dropout_prob=get(
                "augmentation", "coordinate_dropout_prob", base.augmentation.coordinate_dropout_prob
            ),
            crop_area_range=(
                get("augmentation", "crop_area_min", base.augmentation.crop_area_range[0]),
                get("augmentation", "crop_area_max", base.augmentation.crop_area_range[1]),
            ),
            output_size=None if out_h == 0 else (out_h, out_w),
            flip_prob=get("augmentation", "flip_prob", base.augmentation.flip_prob),
            color_jitter_strength=get(
                "augmentation", "color_jitter_strength", base.augmentation.color_jitter_strength
            ),
            grayscale_prob=get("augmentation", "grayscale_prob", base.augmentation.grayscale_prob),
        )
        return ExperimentConfig(
            dataset_kind=get("dataset", "kind", base.dataset_kind),
            synthetic=synthetic,
            image_path=get("dataset", "path", base.image_path),
            train_fraction=get("dataset", "train_fraction", base.train_fraction),
            hidden_dims=get("encoder", "hidden_dims", base.hidden_dims),
            rep_dim=get("encoder", "rep_dim", base.rep_dim),
            proj_hidden_dim=get("encoder", "proj_hidden_dim", base.proj_hidden_dim),
            proj_out_dim=get("encoder", "proj_out_dim", base.proj_out_dim),
            optimizer=OptimizerConfig(
                learning_rate=get("optimizer", "learning_rate", base.optimizer.learning_rate),
                beta1=get("optimizer", "beta1", base.optimizer.beta1),
                beta2=get("optimizer", "beta2", base.optimizer.beta2),
                eps=get("optimizer", "eps", base.optimizer.eps),
            ),
            smoothing=SmoothingConfig(
                tau=get("smoothing", "tau", base.smoothing.tau),
                smooth_numerator=get("smoothing", "smooth_numerator", base.smoothing.smooth_numerator),
            ),
            contrastive=ContrastiveConfig(
                temperature=get("contrastive", "temperature", base.contrastive.temperature),
                pairing=get("contrastive", "pairing", base.contrastive.pairing),
            ),
            augmentation=augmentation,
            probe=ProbeConfig(
                epochs=get("probe", "epochs", base.probe.epochs),
                learning_rate=get("probe", "learning_rate", base.probe.learning_rate),
                l2_penalty=get("probe", "l2_penalty", base.probe.l2_penalty),
            ),
            loss=get("run", "loss", base.loss),
            B=get("run", "B", base.B),
            K=get("run", "K", base.K),
            steps=get("run", "steps", base.steps),
            eval_every=get("run", "eval_every", base.eval_every),
            seed=get("run", "seed", base.seed),
            output_dir=get("run", "output_dir", base.output_dir),
            deterministic=get("run", "deterministic", base.deterministic),
        )
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
    for section, key, kind, fetch in _FIELDS:
        if section != current:
            if current is not None:
                lines.append("")
            lines.append(f"[{section}]")
            current = section
        lines.append(f"{key} = {_render_value(kind, fetch(config))}")
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
