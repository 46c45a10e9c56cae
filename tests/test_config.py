"""Flat config grammar: parsing, rendering, round-trips, and rejection cases."""

import collections
import dataclasses

import numpy as np
import pytest

from s2r2 import (
    ConfigError,
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

        # the run seed derives these two; each pair field has two index rows
        derived = {"synthetic.seed", "probe.seed"}
        pairs = {"augmentation.crop_area_range", "augmentation.output_size"}
        assert all(len(row) == 4 for row in _FIELDS)
        covered = collections.Counter(
            path.rpartition(".")[0] if path.rpartition(".")[2].isdigit() else path
            for _, _, _, path in _FIELDS
        )
        expected = {leaf: 2 if leaf in pairs else 1
                    for leaf in leaves(ExperimentConfig()) if leaf not in derived}
        assert covered == expected
        assert {path for _, _, _, path in _FIELDS if path.rpartition(".")[0] in pairs} == {
            f"{pair}.{i}" for pair in pairs for i in (0, 1)}


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
composition = mixed_source
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
smooth_numerator = false

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
        assert cfg.synthetic.composition == "mixed_source"
        assert cfg.hidden_dims == (64, 32)
        assert cfg.smoothing.tau == 0.02
        assert cfg.smoothing.smooth_numerator is False
        assert cfg.augmentation.output_size == (8, 6)
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
        assert parse_config("[encoder]\nhidden_dims = 42\n").hidden_dims == (42,)
        assert parse_config("[encoder]\nhidden_dims =\n").hidden_dims == ()


class TestRejection:
    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="section"):
            parse_config("[banana]\nx = 1\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="key"):
            parse_config("[run]\nbanana = 1\n")

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
        with pytest.raises(ConfigError):
            ExperimentConfig(**widths)

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
        with pytest.raises(ConfigError):
            parse_config("[augmentation]\noutput_height = 8\n")

    @pytest.mark.parametrize("sides", [(-3, -3), (8, -1), (-2, 4)])
    def test_negative_output_size_rejected(self, sides):
        text = "[augmentation]\noutput_height = {}\noutput_width = {}\n".format(*sides)
        with pytest.raises(ConfigError, match="output_size"):
            parse_config(text)


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
