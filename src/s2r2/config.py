"""Flat key-value experiment configuration.

Grammar, one statement per line::

    # comment
    [section]
    key = value

Values are integers (``16``), finite reals (``0.01``, ``1e-4``), booleans
(``true``/``false``), strings (bare token or double-quoted, holding no
double quote or line break of their own), or
comma-separated integer lists (``128,64``).  ``#`` starts a comment
outside quotes.  Unknown sections or keys are errors, not warnings, so a
typo cannot silently fall back to a default.  Each key sets one plain
field: an `ExperimentConfig` attribute (``[run] B``) or an attribute of
one of its sub-configs (``[optimizer] beta1``).

`render_config` writes the fully normalized form (every key, canonical
order); parsing its output yields an equal `ExperimentConfig`, and runs
echo it next to their artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import attrgetter

from .contrastive import ContrastiveConfig
from .data import SyntheticSpec
from .encoder import EncoderConfig, OptimizerConfig
from .probe import ProbeConfig
from .ranking import SmoothingConfig
from .views import AugmentationPolicy

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "parse_text",
    "load_config",
    "render_config",
    "with_overrides",
]

LOSSES = ("s2r2", "infonce")
_TOO_MANY_DIGITS = "the integer has too many digits"


class ConfigError(ValueError):
    """Config text that does not parse or violates a field constraint."""


@dataclass
class ExperimentConfig:
    """Everything a run needs: data, model, objective, budget, outputs.

    Each leaf is one `_FIELDS` key that a user sets; a derived value, such
    as the encoder's input width (from the dataset), is an argument.
    `seed` is the root of all randomness.  The runner derives each
    component's seed from it (data generation and split, augmentation,
    weight init, probe) and passes it as an argument, so a config carries
    exactly one seed.  Whichever path sets a leaf, `render_config` must be
    able to echo it: a leaf that `_parse_value` does not read back from its
    echo as an equal value of its own type is refused naming its key.
    """

    dataset_kind: str = "synthetic"
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    image_path: str = ""
    train_fraction: float = 0.8
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
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
        for section, key, kind, path in _FIELDS:
            value = attrgetter(path)(self)
            try:
                back = _parse_value(kind, _render_value(kind, value))
                if not (isinstance(value, type(back)) and back == value):
                    raise ValueError(f"its echo reads back as {_shown(back)}")
            except (ArithmeticError, AttributeError, TypeError, ValueError) as exc:
                try:
                    shown = _shown(value)
                except ValueError:  # an int past Python's int-to-text digit limit
                    raise ConfigError(f"{section}.{key}: {_TOO_MANY_DIGITS}") from None
                raise ConfigError(f"{section}.{key}: {exc}, got {shown}") from None
        if self.dataset_kind not in ("synthetic", "images"):
            raise ConfigError(f"dataset kind must be synthetic or images, "
                              f"got {_shown(self.dataset_kind)}")
        if self.dataset_kind == "images" and not self.image_path:
            raise ConfigError("dataset kind images requires a path")
        if self.dataset_kind == "synthetic" and self.synthetic.samples_per_class < 2:
            raise ConfigError(f"samples_per_class must be >= 2 so that every class has a train "
                              f"and a test sample, got {self.synthetic.samples_per_class}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must lie in (0, 1), got {self.train_fraction}")
        if self.loss not in LOSSES:
            raise ConfigError(f"loss must be one of {LOSSES}, got {_shown(self.loss)}")
        if self.B < 2 or self.K < 2:
            raise ConfigError(f"B and K must be >= 2, got B={_shown(self.B)}, K={_shown(self.K)}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {_shown(self.steps)}")
        if not 1 <= self.eval_every <= self.steps:
            raise ConfigError(f"eval_every must lie in [1, steps], got eval_every="
                              f"{_shown(self.eval_every)}, steps={_shown(self.steps)}")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if not self.output_dir:
            raise ConfigError("output_dir must name a directory, got an empty path")


# (section, key, kind, path) in canonical echo order, read by both
# parse_config and render_config.  kind is int/real/bool/str/ints; path is
# the ExperimentConfig attribute, or "sub_config.attribute".
_FIELDS = [
    ("dataset", "kind", "str", "dataset_kind"),
    ("dataset", "path", "str", "image_path"),
    ("dataset", "num_classes", "int", "synthetic.num_classes"),
    ("dataset", "dim", "int", "synthetic.dim"),
    ("dataset", "samples_per_class", "int", "synthetic.samples_per_class"),
    ("dataset", "cluster_spread", "real", "synthetic.cluster_spread"),
    ("dataset", "center_scale", "real", "synthetic.center_scale"),
    ("dataset", "mix_count", "int", "synthetic.mix_count"),
    ("dataset", "train_fraction", "real", "train_fraction"),
    ("encoder", "hidden_dims", "ints", "encoder.hidden_dims"),
    ("encoder", "rep_dim", "int", "encoder.rep_dim"),
    ("encoder", "proj_hidden_dim", "int", "encoder.proj_hidden_dim"),
    ("encoder", "proj_out_dim", "int", "encoder.proj_out_dim"),
    ("optimizer", "learning_rate", "real", "optimizer.learning_rate"),
    ("optimizer", "beta1", "real", "optimizer.beta1"),
    ("optimizer", "beta2", "real", "optimizer.beta2"),
    ("optimizer", "eps", "real", "optimizer.eps"),
    ("smoothing", "tau", "real", "smoothing.tau"),
    ("contrastive", "temperature", "real", "contrastive.temperature"),
    ("augmentation", "noise_std", "real", "augmentation.noise_std"),
    ("augmentation", "scale_jitter", "real", "augmentation.scale_jitter"),
    ("augmentation", "coordinate_dropout_prob", "real", "augmentation.coordinate_dropout_prob"),
    ("augmentation", "crop_area_min", "real", "augmentation.crop_area_min"),
    ("augmentation", "crop_area_max", "real", "augmentation.crop_area_max"),
    ("augmentation", "output_height", "int", "augmentation.output_height"),
    ("augmentation", "output_width", "int", "augmentation.output_width"),
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


def _parse_value(kind: str, raw: str):
    """The value of ``kind`` that the text ``raw`` spells, the one definition
    of each kind.  Raises `ValueError`, whose text never echoes ``raw``, on
    text of another kind, an integer past Python's int-to-text digit limit,
    a real that is not finite, or a string holding a double quote or a line
    break."""
    # Python's own texts echo the whole value or name an interpreter
    # setting; the refusals below speak the config's words and echo nothing
    if kind == "int":
        try:
            return int(raw)
        except ValueError as exc:
            too_long = str(exc).startswith("Exceeds the limit")
            raise ValueError(_TOO_MANY_DIGITS if too_long else "not an integer") from None
    if kind == "real":
        try:
            value = float(raw)
        except ValueError:
            raise ValueError("not a real number") from None
        if not math.isfinite(value):
            raise ValueError("a real must be finite")
        return value
    if kind == "bool":
        if raw not in ("true", "false"):
            raise ValueError("expected true or false")
        return raw == "true"
    if kind == "ints":
        return tuple(_parse_value("int", tok) for tok in raw.split(",") if tok.strip())
    if raw.startswith('"') or raw.endswith('"'):
        if len(raw) < 2 or not (raw.startswith('"') and raw.endswith('"')):
            raise ValueError("unbalanced quotes")
        raw = raw[1:-1]
    if '"' in raw or "".join(raw.splitlines()) != raw:
        raise ValueError("a string cannot hold a double quote or a line break")
    return raw


def _shown(value) -> str:
    """A refused value's repr, of a string's first 40 characters or else cut
    after 40, then "..."; raises `ValueError` where `repr` does."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 40 else f"{value[:40]!r}..."
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}..."


def parse_text(kind: str, raw: str):
    """The value of ``kind`` that a config value or a command-line flag
    spells, by `_parse_value`.  Raises `ConfigError` "cannot parse <raw>
    as <kind> (<reason>)", whose echo of ``raw`` stops after 40 characters."""
    try:
        return _parse_value(kind, raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {_shown(raw)} as {kind} ({exc})") from None


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
                raise ConfigError(f"line {lineno}: malformed section header {_shown(stmt)}")
            section = stmt[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section {_shown(section)}")
            continue
        if "=" not in stmt:
            raise ConfigError(f"line {lineno}: expected key = value, got {_shown(stmt)}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, raw = (part.strip() for part in stmt.split("=", 1))
        if (section, key) not in _ROWS:
            raise ConfigError(f"line {lineno}: unknown key {_shown(key)} in section [{section}]")
        kind, path = _ROWS[section, key]
        if path in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in section [{section}]")
        try:
            values[path] = parse_text(kind, raw)
        except ConfigError as exc:
            raise ConfigError(f"{section}.{key}: line {lineno}: {exc}") from None
    return values


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text; unset keys take their documented defaults.

    Each value goes to its `_FIELDS` path on the default config.  Each
    sub-config that a value names is rebuilt once by
    `dataclasses.replace`, then the `ExperimentConfig` itself, so every
    ``__post_init__`` check sees the final values.  A sub-config's range
    error is prefixed with its section, as ``[probe] epochs must be ...``.
    """
    base = ExperimentConfig()
    values = _parse_sections(text)
    owned: dict[str, dict] = {"": {}}  # sub-config ("" for the top level) -> {attribute: value}
    for path, value in values.items():
        owner, _, name = path.rpartition(".")
        owned.setdefault(owner, {})[name] = value
    top = owned.pop("")
    for owner, changes in owned.items():
        try:
            top[owner] = replace(getattr(base, owner), **changes)
        except ValueError as exc:
            section = next(s for s, _, _, path in _FIELDS if path.startswith(owner + "."))
            raise ConfigError(f"[{section}] {exc}") from None
    return replace(base, **top)


def load_config(path) -> ExperimentConfig:
    """Parse the config file at ``path``, which must be UTF-8 text."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_config(text)


def _render_value(kind: str, value) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "ints":
        return ",".join(str(v) for v in value)
    if kind == "real":
        return repr(float(value))
    if kind == "str":
        bare = value and value == value.strip() and not any(c in value for c in " #[]=")
        return value if bare else f'"{value}"'
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
        lines.append(f"{key} = {_render_value(kind, attrgetter(path)(config))}")
    return "\n".join(lines) + "\n"


def with_overrides(config: ExperimentConfig, seed=None, output_dir=None, deterministic=None) -> ExperimentConfig:
    """CLI flags layered over a parsed config; a flag left at None keeps its field."""
    flags = {"seed": seed, "output_dir": output_dir, "deterministic": deterministic}
    return replace(config, **{name: value for name, value in flags.items() if value is not None})
