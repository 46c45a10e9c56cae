"""Flat config grammar: parsing, rendering, round-trips, and rejection cases."""

import collections
import dataclasses
import math
import pathlib
import re

import numpy as np
import pytest

from s2r2 import (
    AugmentationPolicy,
    ConfigError,
    EncoderConfig,
    ExperimentConfig,
    load_config,
    parse_config,
    render_config,
    with_overrides,
)
from s2r2.config import _FIELDS

MINIMAL = """
[run]
steps = 10
eval_every = 5
"""


class TestDefaults:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == ExperimentConfig()

    def test_partial_text_overrides_only_named_keys(self):
        cfg = parse_config(MINIMAL)
        assert cfg.steps == 10
        assert cfg.eval_every == 5
        assert cfg.B == 16 and cfg.K == 8
        assert cfg.loss == "s2r2"

    def test_default_config_is_valid(self):
        cfg = ExperimentConfig()
        assert cfg.dataset_kind == "synthetic"
        assert cfg.synthetic.num_classes == 10
        assert cfg.synthetic.dim == 64
        assert cfg.train_fraction == 0.8


class TestSchema:
    def test_rows_cover_every_leaf_field_once(self):
        def leaves(obj, prefix=""):
            for f in dataclasses.fields(obj):
                value = getattr(obj, f.name)
                if dataclasses.is_dataclass(value):
                    yield from leaves(value, f"{prefix}{f.name}.")
                else:
                    yield prefix + f.name

        assert all(len(row) == 4 for row in _FIELDS)
        covered = collections.Counter(path for _, _, _, path in _FIELDS)
        assert covered == {leaf: 1 for leaf in leaves(ExperimentConfig())}
        # each key sets the attribute of its own name, one sub-config deep at most
        renamed = {("dataset", "kind"): "dataset_kind", ("dataset", "path"): "image_path"}
        for section, key, _, path in _FIELDS:
            assert path.count(".") <= 1
            assert path.rpartition(".")[2] == renamed.get((section, key), key)


class TestRoundTrip:
    def test_render_then_parse_is_identity(self):
        cfg = ExperimentConfig()
        assert parse_config(render_config(cfg)) == cfg

    def test_round_trip_with_non_default_values(self):
        text = """
[dataset]
kind = synthetic
num_classes = 7
dim = 32
samples_per_class = 25
cluster_spread = 0.35
mix_count = 2
train_fraction = 0.75

[encoder]
hidden_dims = 64, 32
rep_dim = 16
proj_hidden_dim = 8
proj_out_dim = 8

[optimizer]
learning_rate = 0.0005

[smoothing]
tau = 0.02

[contrastive]
temperature = 0.25

[augmentation]
noise_std = 0.05
output_height = 8
output_width = 6

[probe]
epochs = 50

[run]
loss = infonce
B = 4
K = 4
steps = 30
eval_every = 10
seed = 123
output_dir = "out dir with spaces"
deterministic = true
"""
        cfg = parse_config(text)
        assert cfg.synthetic.num_classes == 7
        assert cfg.synthetic.mix_count == 2
        assert cfg.encoder.hidden_dims == (64, 32)
        assert cfg.smoothing.tau == 0.02
        assert (cfg.augmentation.output_height, cfg.augmentation.output_width) == (8, 6)
        assert cfg.output_dir == "out dir with spaces"
        assert cfg.deterministic is True
        assert parse_config(render_config(cfg)) == cfg

    def test_real_values_survive_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cfg = ExperimentConfig(train_fraction=float(rng.uniform(0.01, 0.99)))
            assert parse_config(render_config(cfg)).train_fraction == cfg.train_fraction

    def test_load_config_reads_files(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(render_config(ExperimentConfig(steps=7, eval_every=7)))
        assert load_config(path).steps == 7


class TestGrammar:
    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("""
# leading comment
[run]   # trailing comment on header
steps = 3  # trailing comment on key
eval_every = 3
""")
        assert cfg.steps == 3

    def test_hash_inside_quoted_string_is_literal(self):
        cfg = parse_config('[run]\noutput_dir = "runs/#7"\n')
        assert cfg.output_dir == "runs/#7"

    def test_bool_spellings(self):
        assert parse_config("[run]\ndeterministic = true\n").deterministic is True
        assert parse_config("[run]\ndeterministic = false\n").deterministic is False
        with pytest.raises(ConfigError):
            parse_config("[run]\ndeterministic = yes\n")

    def test_int_list_single_and_empty(self):
        assert parse_config("[encoder]\nhidden_dims = 42\n").encoder.hidden_dims == (42,)
        assert parse_config("[encoder]\nhidden_dims =\n").encoder.hidden_dims == ()


class TestRejection:
    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="section"):
            parse_config("[banana]\nx = 1\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="key"):
            parse_config("[run]\nbanana = 1\n")
        # a removed key is unknown too, so an old config.echo that names it exits 2
        with pytest.raises(ConfigError, match="unknown key 'pairing'"):
            parse_config("[contrastive]\npairing = adjacent_pairs\n")
        with pytest.raises(ConfigError, match="unknown key 'smooth_numerator'"):
            parse_config("[smoothing]\nsmooth_numerator = true\n")
        with pytest.raises(ConfigError, match="unknown key 'composition'"):
            parse_config("[dataset]\ncomposition = mixed_source\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("[run]\nsteps = 1\nsteps = 2\n")

    def test_key_before_any_section(self):
        with pytest.raises(ConfigError):
            parse_config("steps = 1\n")

    def test_bad_int(self):
        with pytest.raises(ConfigError):
            parse_config("[run]\nsteps = 1.5\n")

    def test_bad_real(self):
        with pytest.raises(ConfigError):
            parse_config("[smoothing]\ntau = fast\n")
        for raw in ("nan", "inf", "-inf", "1e400"):
            with pytest.raises(ConfigError, match="finite"):
                parse_config(f"[augmentation]\nnoise_std = {raw}\n")

    @pytest.mark.parametrize("raw", ['a"b#c', '"a"b"'])
    def test_double_quote_inside_string_rejected_naming_the_key(self, raw):
        with pytest.raises(ConfigError, match=r'dataset\.path: .*double quote'):
            parse_config(f"[dataset]\npath = {raw}\n")

    def test_malformed_section_header(self):
        with pytest.raises(ConfigError, match=r"^line 2: malformed section header '\[run'$"):
            parse_config("# runs\n[run\nsteps = 3\n")

    @pytest.mark.parametrize("raw", ['"runs', 'runs"', '"'])
    def test_unbalanced_quotes_rejected_naming_the_key(self, raw):
        with pytest.raises(ConfigError, match=r"^run\.output_dir: line 2: .*unbalanced quotes"):
            parse_config(f"[run]\noutput_dir = {raw}\n")

    @pytest.mark.parametrize("text, message", [
        ("[probe]\nlearning_rate = 0\n", "[probe] learning_rate must be > 0, got 0.0"),
        ("[optimizer]\nlearning_rate = 0\n", "[optimizer] learning_rate must be positive"),
        # the SyntheticSpec attribute `synthetic` is set by the [dataset] keys
        ("[dataset]\ncluster_spread = 0\n", "[dataset] cluster_spread must be positive"),
    ], ids=["probe", "optimizer", "dataset"])
    def test_sub_config_range_error_names_its_section(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == message

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config("[run]\nsteps 5\n")

    def test_error_message_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("[run]\nsteps = 1\nbogus_key = 2\n")


class TestValidation:
    def test_zero_steps_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(steps=0)

    def test_eval_every_beyond_steps_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(steps=5, eval_every=6)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            ExperimentConfig(seed=-1)

    def test_small_batch_shape_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(B=1)
        with pytest.raises(ConfigError):
            ExperimentConfig(K=1)

    @pytest.mark.parametrize("widths", [
        dict(rep_dim=0),
        dict(hidden_dims=(8, -1)),
        dict(proj_hidden_dim=0),
        dict(proj_out_dim=-3),
    ])
    def test_nonpositive_layer_width_rejected(self, widths):
        with pytest.raises(ValueError, match="layer widths must be >= 1"):
            EncoderConfig(**widths)
        (key, value), = widths.items()
        raw = ",".join(map(str, value)) if isinstance(value, tuple) else value
        with pytest.raises(ConfigError, match="layer widths must be >= 1"):
            parse_config(f"[encoder]\n{key} = {raw}\n")

    def test_unknown_loss_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(loss="triplet")

    def test_images_without_path_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset_kind="images")

    def test_train_fraction_bounds(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(train_fraction=0.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(train_fraction=1.0)

    def test_output_size_must_be_set_together(self):
        with pytest.raises(ConfigError, match="output_height and output_width"):
            parse_config("[augmentation]\noutput_height = 8\n")

    @pytest.mark.parametrize("sides", [(-3, -3), (8, -1), (-2, 4)])
    def test_negative_output_size_rejected(self, sides):
        text = "[augmentation]\noutput_height = {}\noutput_width = {}\n".format(*sides)
        with pytest.raises(ConfigError, match="output_height"):
            parse_config(text)


REAL_ROWS = [(section, key, path) for section, key, kind, path in _FIELDS if kind == "real"]


class TestFiniteReals:
    """A real that is not finite reaches no `ExperimentConfig`, whichever
    path sets it: `render_config` would echo it as text that
    `parse_config` refuses."""

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=repr)
    @pytest.mark.parametrize("section, key, path", REAL_ROWS,
                             ids=[f"{section}.{key}" for section, key, _ in REAL_ROWS])
    def test_refused_naming_the_key(self, section, key, path, value):
        named = rf"^{section}\.{key}: .*finite"
        with pytest.raises(ConfigError, match=named):
            parse_config(f"[{section}]\n{key} = {value!r}\n")
        base = ExperimentConfig()
        owner, _, name = path.rpartition(".")
        if owner:
            try:
                sub = dataclasses.replace(getattr(base, owner), **{name: value})
            except ValueError:
                return  # the sub-config's own range check refuses it first
            changes = {owner: sub}
        else:
            changes = {name: value}
        with pytest.raises(ConfigError, match=named):
            dataclasses.replace(base, **changes)


def with_leaf(config, path, value):
    """``config`` with the `_FIELDS` leaf at ``path`` set by `dataclasses.replace`."""
    owner, _, name = path.rpartition(".")
    if owner:
        value = dataclasses.replace(getattr(config, owner), **{name: value})
        name = owner
    return dataclasses.replace(config, **{name: value})


def leaf_case_id(key, value):
    try:
        return f"{key}={value!r:.16}"
    except ValueError:  # an int past the int-to-text digit limit
        return f"{key}=10**5000"


IMAGE_OUTPUT = ExperimentConfig(augmentation=AugmentationPolicy(output_height=32,
                                                                output_width=32))


class TestLeafRule:
    """A leaf reaches an `ExperimentConfig` only if `_parse_value` reads an
    equal value of its own type back from its echo; each case below is
    refused naming its key, whichever path sets it."""

    CASES = [
        ("run.B", "B", 4.0, None),
        ("run.steps", "steps", 200.0, None),
        ("encoder.rep_dim", "encoder.rep_dim", 8.5, None),
        ("dataset.mix_count", "synthetic.mix_count", 2.0, None),
        ("augmentation.output_height", "augmentation.output_height", 32.0, IMAGE_OUTPUT),
        # a bool is no int, and an int no bool
        ("run.seed", "seed", True, None),
        ("probe.epochs", "probe.epochs", True, None),
        ("run.deterministic", "deterministic", 1, None),
        ("run.deterministic", "deterministic", "no", None),
        ("run.output_dir", "output_dir", 5, None),
        ("encoder.hidden_dims", "encoder.hidden_dims", "128", None),
        ("encoder.hidden_dims", "encoder.hidden_dims", (1.5,), None),
        ("dataset.cluster_spread", "synthetic.cluster_spread", 10**400, None),
        # an int is no real: its echo reads back as a float
        ("dataset.cluster_spread", "synthetic.cluster_spread", 2, None),
        ("dataset.train_fraction", "train_fraction", "0.5", None),
        ("run.B", "B", np.int64(4), None),
        # past Python's int-to-text digit limit, so repr(value) raises too
        ("run.B", "B", 10**5000, None),
        ("run.steps", "steps", 10**5000, None),
        ("encoder.hidden_dims", "encoder.hidden_dims", (10**5000,), None),
        ("dataset.cluster_spread", "synthetic.cluster_spread", 10**5000, None),
    ]

    @pytest.mark.parametrize("key, path, value, base", CASES,
                             ids=[leaf_case_id(key, value) for key, _, value, _ in CASES])
    def test_refused_naming_the_key(self, key, path, value, base):
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
            with_leaf(base or ExperimentConfig(), path, value)

    def test_message_names_the_echo_and_the_value(self):
        with pytest.raises(ConfigError) as info:
            with_leaf(ExperimentConfig(), "deterministic", "no")
        assert str(info.value) == "run.deterministic: its echo reads back as True, got 'no'"
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(B=4.0)
        assert str(info.value) == "run.B: not an integer, got 4.0"

    def test_with_overrides_takes_the_same_rule(self):
        with pytest.raises(ConfigError, match=r"^run\.seed: "):
            with_overrides(ExperimentConfig(), seed=True)
        with pytest.raises(ConfigError, match=r"^run\.output_dir: "):
            with_overrides(ExperimentConfig(), output_dir=pathlib.Path("runs"))

    def test_accepted_values_of_a_subtype_round_trip(self):
        # a numpy float64 is a float; hidden_dims may arrive as any sequence
        cfg = with_leaf(ExperimentConfig(), "optimizer.learning_rate", np.float64(3e-4))
        cfg = with_leaf(cfg, "encoder.hidden_dims", [32, 16])
        assert cfg.encoder.hidden_dims == (32, 16)
        assert parse_config(render_config(cfg)) == cfg


class TestEchoStrings:
    """A path that `render_config` could not write on one quoted line is
    refused by the config itself, whichever way it arrives."""

    @pytest.mark.parametrize("value", ['q"dir', "q\rdir", "q\ndir", "q\r\n", "\x0bq", "q\x85",
                                       "q\u2029"],
                             ids=["quote", "cr", "lf", "crlf", "vt", "nel", "paragraph-sep"])
    def test_output_dir_and_image_path_refuse_it(self, value):
        cfg = ExperimentConfig()
        with pytest.raises(ConfigError, match=r"^run\.output_dir: .*double quote"):
            with_overrides(cfg, output_dir=value)
        with pytest.raises(ConfigError, match=r"^run\.output_dir: "):
            dataclasses.replace(cfg, output_dir=value)
        with pytest.raises(ConfigError, match=r"^dataset\.path: "):
            ExperimentConfig(dataset_kind="images", image_path=value)

    def test_every_accepted_path_round_trips(self):
        for value in ("out dir with spaces", "runs/#7", " lead", "tab\there", "[x]=y", "é"):
            cfg = ExperimentConfig(output_dir=value, dataset_kind="images", image_path=value)
            assert parse_config(render_config(cfg)) == cfg


class TestOverrides:
    def test_with_overrides_replaces_named_fields(self):
        cfg = ExperimentConfig()
        out = with_overrides(cfg, seed=99, output_dir="elsewhere", deterministic=True)
        assert out.seed == 99
        assert out.output_dir == "elsewhere"
        assert out.deterministic is True
        assert out.steps == cfg.steps

    def test_with_overrides_none_keeps_original(self):
        cfg = ExperimentConfig(seed=5)
        out = with_overrides(cfg)
        assert out == cfg
