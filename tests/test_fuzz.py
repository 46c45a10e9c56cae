"""Property tests over untrusted text and bytes: the config parser, the
two binary loaders, and whole CLI runs of tiny configs.

Examples are derandomized and bounded so the suite stays deterministic
and fast.  The pinned ``@example`` cases are inputs that once broke a
property: a ``nan`` real that parsed but could not round-trip, a nested
checkpoint header that escaped as ``RecursionError``, a checkpoint whose
tensors held a NaN and loaded as if sound, three checkpoint config blocks
whose errors did not name the file (malformed JSON, bytes that are not
UTF-8, a zero ``input_dim``), an image header with a zero
side that loaded as an empty-pixel dataset, and an empty image bundle
with 2**32-1-wide sides whose error did not name the file.  The CLI
examples are configs that once exited 0 with a chance-level probe score,
exited 1 where 3 was due, or exited 1 after writing artifacts where 2
was due.
"""

import json
import math
import pathlib
import struct
import tempfile

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from s2r2 import ConfigError, parse_config, render_config
from s2r2.cli import main
from s2r2.config import _FIELDS
from s2r2.data import IMAGE_MAGIC, load_binary_images
from s2r2.encoder import _CONFIG_KEYS, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, load_checkpoint

SECTIONS = sorted({section for section, _, _, _ in _FIELDS})
KEYS = sorted({key for _, key, _, _ in _FIELDS})
SECTION_KEYS = {s: [(key, kind) for section, key, kind, _ in _FIELDS if section == s]
                for s in SECTIONS}
NAME_TOKENS = ["synthetic", "images", "s2r2", "infonce", "gaussian", "all", "banana"]
# tokens every value kind accepts somewhere, plus near misses
VALUE_TOKENS = [
    "0", "1", "2", "3", "8", "16", "-1", "0.5", "0.05", "1e-3", "2.0", "1e400",
    "nan", "inf", "-inf", "true", "false", "True", "8,4", "8,-1", ",", "1,,2",
    '""', '"a b"', '"a#b"', '"', 'x"', *NAME_TOKENS,
]

values = st.one_of(st.sampled_from(VALUE_TOKENS), st.text(max_size=8))
key_lines = st.builds(lambda k, v: f"{k} = {v}", st.sampled_from(KEYS + ["bogus"]), values)
section_lines = st.builds(lambda s: f"[{s}]", st.sampled_from(SECTIONS + ["bogus"]))
config_lines = st.one_of(key_lines, key_lines, section_lines, st.text(max_size=16))
# mostly in-range values by kind, so that whole configs get accepted and
# reach the round-trip check
small_ints = st.integers(1, 32)
typed_values = {
    "int": small_ints.map(str),
    "real": st.floats(0.01, 1.0).map(repr),
    "bool": st.sampled_from(["true", "false"]),
    "ints": st.lists(small_ints, max_size=3).map(lambda xs: ",".join(map(str, xs))),
    "str": st.one_of(st.sampled_from(NAME_TOKENS), st.text(max_size=8)),
}


@st.composite
def section_blocks(draw):
    """A header and keys of that section: well-formed enough to parse often."""
    section = draw(st.sampled_from(SECTIONS))
    fields = draw(st.lists(st.sampled_from(SECTION_KEYS[section]), max_size=3, unique=True))
    lines = [f"{key} = {draw(typed_values[kind])}" for key, kind in fields]
    return "\n".join([f"[{section}]"] + lines)


config_texts = st.one_of(
    st.lists(config_lines, max_size=12).map("\n".join),
    st.lists(section_blocks(), max_size=4).map("\n".join),
)

FUZZ = settings(derandomize=True, max_examples=200, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])


@FUZZ
@given(config_texts)
@example("[augmentation]\nnoise_std = nan\n")
def test_parse_config_accepts_or_raises_config_error(text):
    try:
        config = parse_config(text)
    except ConfigError:
        return
    assert parse_config(render_config(config)) == config


json_scalars = st.one_of(st.integers(-2, 2**40), st.booleans(), st.none(),
                         st.sampled_from(["relu", "tanh", ""]))
config_docs = st.dictionaries(
    st.sampled_from(sorted(_CONFIG_KEYS)),
    st.one_of(json_scalars, st.lists(st.integers(-2, 2**40), max_size=3)),
    max_size=len(_CONFIG_KEYS),
)


def _checkpoint_body(doc, payload):
    block = json.dumps(doc).encode()
    return struct.pack("<II", CHECKPOINT_VERSION, len(block)) + block + payload


# three 1x1 layers: six float32 tensor entries
TINY_CHECKPOINT_CONFIG = {"input_dim": 1, "hidden_dims": [], "rep_dim": 1, "proj_hidden_dim": 1,
                          "proj_out_dim": 1, "activation": "relu", "seed": 0}


def _image_body(dims, payload):
    return struct.pack("<5I", *dims) + payload


checkpoint_bodies = st.one_of(
    st.binary(max_size=64),
    st.builds(_checkpoint_body, config_docs, st.binary(max_size=64)),
)
image_bodies = st.one_of(
    st.binary(max_size=64),
    st.builds(_image_body,
              st.tuples(*[st.one_of(st.integers(0, 4), st.just(2**32 - 1))] * 5),
              st.binary(max_size=64)),
)


@FUZZ
@given(magic=st.sampled_from([CHECKPOINT_MAGIC, IMAGE_MAGIC, b""]),
       body=st.one_of(checkpoint_bodies, image_bodies))
@example(magic=CHECKPOINT_MAGIC,
         body=struct.pack("<II", CHECKPOINT_VERSION, 200_000) + b"[" * 200_000)
@example(magic=CHECKPOINT_MAGIC,
         body=_checkpoint_body(TINY_CHECKPOINT_CONFIG,
                               struct.pack("<6f", 0.5, 0.5, float("nan"), 0.5, 0.5, 0.5)))
@example(magic=CHECKPOINT_MAGIC, body=struct.pack("<II", CHECKPOINT_VERSION, 4) + b"{bad")
@example(magic=CHECKPOINT_MAGIC, body=struct.pack("<II", CHECKPOINT_VERSION, 2) + b"\xff\xfe")
@example(magic=CHECKPOINT_MAGIC,
         body=_checkpoint_body({**TINY_CHECKPOINT_CONFIG, "input_dim": 0}, b""))
@example(magic=IMAGE_MAGIC, body=_image_body((3, 0, 4, 3, 2), bytes(6)))
@example(magic=IMAGE_MAGIC, body=_image_body((0, 2**32 - 1, 2**32 - 1, 3, 2), b""))
def test_loaders_raise_only_value_errors(tmp_path, magic, body):
    path = tmp_path / "blob.bin"
    path.write_bytes(magic + body)
    try:
        params = load_checkpoint(path)
    except ValueError as exc:
        assert str(path) in str(exc)
    else:
        assert all(np.isfinite(t).all() for t in params.weights + params.biases)
    try:
        images = load_binary_images(path)
    except ValueError as exc:
        assert str(path) in str(exc)
    else:
        assert min(images.samples.shape[1:]) > 0


# keys that set the size of a run are always drawn small; up to six other
# rows per config draw from `typed_values`
TINY_ROWS = {("dataset", "dim"): st.integers(1, 8),
             ("dataset", "samples_per_class"): st.integers(1, 12),
             ("run", "steps"): st.integers(1, 3),
             ("run", "eval_every"): st.integers(1, 3)}
OTHER_ROWS = [row[:3] for row in _FIELDS if row[:2] not in TINY_ROWS]


@st.composite
def tiny_configs(draw):
    lines = [f"[{section}]\n{key} = {draw(values)}" for (section, key), values in TINY_ROWS.items()]
    for section, key, kind in draw(st.lists(st.sampled_from(OTHER_ROWS), max_size=6, unique=True)):
        lines.append(f"[{section}]\n{key} = {draw(typed_values[kind])}")
    return "\n".join(lines) + "\n"


def tiny_run(extra="", samples_per_class=12):
    return (f"[dataset]\ndim = 8\nsamples_per_class = {samples_per_class}\n"
            f"[run]\nsteps = 2\neval_every = 2\n{extra}")


@settings(FUZZ, max_examples=200)
@given(verb=st.sampled_from(["train", "compare"]), text=tiny_configs())
@example(verb="train", text=tiny_run("[probe]\nlearning_rate = 1e6\n"))
@example(verb="train", text=tiny_run("[optimizer]\nlearning_rate = 1e300\n"))
@example(verb="train", text=tiny_run("[dataset]\ntrain_fraction = 0.5\n", samples_per_class=2))
@example(verb="train", text=tiny_run("[dataset]\ntrain_fraction = 0.99\n", samples_per_class=3))
@example(verb="train", text=tiny_run("[dataset]\nnum_classes = 1\n"))
@example(verb="train", text=tiny_run("loss = infonce\nK = 3\n"))
@example(verb="compare", text=tiny_run("K = 3\n"))
def test_cli_exits_with_a_documented_code(tmp_path, verb, text):
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
    code = main([verb, "--config", str(cfg), "--out", str(out)])
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert not list(out.rglob("config.echo"))
    for metrics in out.rglob("metrics.jsonl"):
        for line in metrics.read_text(encoding="utf-8").splitlines():
            probe_top1 = json.loads(line)["probe_top1"]
            assert probe_top1 is None or math.isfinite(probe_top1)
