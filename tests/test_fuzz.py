"""Property tests over untrusted text and bytes: the config parser, the
config's leaf rule, the two binary loaders, the batch shape rule, and
whole CLI runs of tiny configs.

Examples are derandomized and bounded so the suite stays deterministic
and fast.  The pinned ``@example`` cases are inputs that once broke a
property: a ``nan`` real that parsed but could not round-trip, Python
leaves that built a config whose echo did not parse back equal
(``B=4.0``, ``seed=True``, ``deterministic="no"``) or that crashed the
finite-real check (``cluster_spread=10**400``), a nested
checkpoint header that escaped as ``RecursionError``, a checkpoint whose
tensors held a NaN and loaded as if sound, three checkpoint config blocks
whose errors did not name the file (malformed JSON, bytes that are not
UTF-8, a zero ``input_dim``), an image header with a zero
side that loaded as an empty-pixel dataset, and an empty image bundle
with 2**32-1-wide sides whose error did not name the file.  The CLI
examples are configs that once exited 0 with a chance-level probe score,
exited 1 where 3 was due, or exited 1 after writing artifacts where 2
was due, and ablate grids whose rejected cells exited 1 or trained the
other cells where 2 was due.
"""

import dataclasses
import json
import math
import pathlib
import re
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from s2r2 import (
    ConfigError,
    ExperimentConfig,
    SmoothingConfig,
    batch_smooth_ap_loss,
    cosine_similarity_matrix,
    info_nce_loss,
    parse_config,
    render_config,
)
from s2r2.cli import main
from s2r2.config import _FIELDS
from s2r2.data import IMAGE_MAGIC, load_binary_images
from s2r2.encoder import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, load_checkpoint
from s2r2.ranking import batch_sources

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
@example('[dataset]\npath = a"b#c\n')
@example('[dataset]\npath = "\tx"\n')
@example('[dataset]\npath = "\u3000x"\n')
def test_parse_config_accepts_or_raises_config_error(text):
    try:
        config = parse_config(text)
    except ConfigError:
        return
    assert parse_config(render_config(config)) == config


# Python values for a leaf: of every kind, bools and numpy ints, reals
# beyond float64 (10**400) or not finite, and strings no config line holds
leaf_values = st.one_of(
    small_ints, st.integers(-2, 2), st.booleans(), small_ints.map(np.int64), st.just(10**400),
    st.floats(0.01, 1.0), st.floats(), st.sampled_from([math.inf, -math.inf, math.nan]),
    st.lists(small_ints, max_size=3).map(tuple), st.lists(st.floats(), max_size=2).map(tuple),
    st.sampled_from(NAME_TOKENS + ["128", 'q"dir', "q\ndir", "q\r", "q\u2029"]),
    st.text(max_size=8),
)
# mostly in-range values of a leaf's own kind, so that changed configs
# often construct and reach the round-trip check
own_values = {
    "int": small_ints,
    "real": st.floats(0.01, 0.99),
    "bool": st.booleans(),
    "ints": st.lists(small_ints, max_size=3).map(tuple),
    "str": st.one_of(st.sampled_from(NAME_TOKENS), st.text(max_size=8)),
}


@st.composite
def leaf_changes(draw):
    """Up to four `_FIELDS` paths, each with a value of its kind or any other."""
    rows = draw(st.lists(st.sampled_from([(path, kind) for _, _, kind, path in _FIELDS]),
                         max_size=4, unique=True))
    return {path: draw(st.one_of(own_values[kind], leaf_values)) for path, kind in rows}


def _with_leaves(changes):
    """The default config with each `_FIELDS` path in ``changes`` set by
    `dataclasses.replace`, one sub-config at a time."""
    base = ExperimentConfig()
    owned = {"": {}}
    for path, value in changes.items():
        owner, _, name = path.rpartition(".")
        owned.setdefault(owner, {})[name] = value
    top = owned.pop("")
    for owner, sub in owned.items():
        top[owner] = dataclasses.replace(getattr(base, owner), **sub)
    return dataclasses.replace(base, **top)


@FUZZ
@given(leaf_changes())
@example({"B": 4.0})
@example({"seed": True})
@example({"deterministic": "no"})
@example({"output_dir": 5})
@example({"encoder.hidden_dims": "128"})
@example({"encoder.hidden_dims": (1.5,)})
@example({"synthetic.cluster_spread": 10**400})
@example({"image_path": "q\ndir", "dataset_kind": "images"})
def test_every_config_that_constructs_echoes_text_that_parses_back_equal(changes):
    try:
        config = _with_leaves(changes)
    except (TypeError, ValueError):  # a sub-config's own check, or ConfigError
        return
    text = render_config(config)
    assert parse_config(text) == config
    assert render_config(parse_config(text)) == text


json_scalars = st.one_of(st.integers(-2, 2**40), st.booleans(), st.none(),
                         st.sampled_from(["relu", "tanh", ""]))
# the block's five keys and the two that only version 1 held, which a
# block must now be refused for
CONFIG_DOC_KEYS = ["activation", "hidden_dims", "input_dim", "proj_hidden_dim", "proj_out_dim",
                   "rep_dim", "seed"]
config_docs = st.dictionaries(
    st.sampled_from(CONFIG_DOC_KEYS),
    st.one_of(json_scalars, st.lists(st.integers(-2, 2**40), max_size=3)),
    max_size=len(CONFIG_DOC_KEYS),
)


def _checkpoint_body(doc, payload, version=CHECKPOINT_VERSION):
    block = json.dumps(doc).encode()
    return struct.pack("<II", version, len(block)) + block + payload


# three 1x1 layers: six float32 tensor entries
TINY_CHECKPOINT_CONFIG = {"input_dim": 1, "hidden_dims": [], "rep_dim": 1, "proj_hidden_dim": 1,
                          "proj_out_dim": 1}


def _image_body(dims, payload):
    return struct.pack("<5I", *dims) + payload


checkpoint_bodies = st.one_of(
    st.binary(max_size=64),
    st.builds(_checkpoint_body, config_docs, st.binary(max_size=64),
              st.sampled_from([0, 1, CHECKPOINT_VERSION, 3, 2**32 - 1])),
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
@example(magic=CHECKPOINT_MAGIC,
         body=_checkpoint_body({**TINY_CHECKPOINT_CONFIG, "activation": "relu", "seed": 0},
                               struct.pack("<6f", *[0.5] * 6), 1))
@example(magic=CHECKPOINT_MAGIC,
         body=_checkpoint_body({**TINY_CHECKPOINT_CONFIG, "activation": "relu", "seed": 0},
                               struct.pack("<6f", *[0.5] * 6)))
@example(magic=IMAGE_MAGIC, body=_image_body((3, 0, 4, 3, 2), bytes(6)))
@example(magic=IMAGE_MAGIC, body=_image_body((0, 2**32 - 1, 2**32 - 1, 3, 2), b""))
def test_loaders_raise_only_value_errors(tmp_path, magic, body):
    path = tmp_path / "blob.bin"
    path.write_bytes(magic + body)
    # a checkpoint of any version but 2 is refused for its version alone
    version = struct.unpack_from("<I", body)[0] if len(body) >= 8 else CHECKPOINT_VERSION
    try:
        params = load_checkpoint(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        if magic == CHECKPOINT_MAGIC and version != CHECKPOINT_VERSION:
            assert str(exc) == f"{path}: unsupported checkpoint version {version}"
    else:
        assert all(np.isfinite(t).all() for t in params.weights + params.biases)
        # a block that holds version 1's two extra keys never loads
        assert b'"activation"' not in body and b'"seed"' not in body
    try:
        images = load_binary_images(path)
    except ValueError as exc:
        assert str(path) in str(exc)
    else:
        assert min(images.samples.shape[1:]) > 0


# 64 MiB of holes behind each header: a loader that reads the file whole
# before it checks the header allocates them all
SPARSE_SIZE = 64 << 20
SPARSE_HEADERS = {
    "checkpoint-bad_magic": (load_checkpoint, b"NOTMAGIC"),
    "images-bad_magic": (load_binary_images, b"NOTMAGIC"),
    # a 2**26-wide input layer: 256 MiB of tensors
    "checkpoint-declares_more": (load_checkpoint, CHECKPOINT_MAGIC + _checkpoint_body(
        {**TINY_CHECKPOINT_CONFIG, "input_dim": 2**26}, b"")),
    "images-declares_more": (load_binary_images,
                             IMAGE_MAGIC + _image_body((2**20, 16, 16, 3, 2), b"")),
    "checkpoint-declares_less": (load_checkpoint,
                                 CHECKPOINT_MAGIC + _checkpoint_body(TINY_CHECKPOINT_CONFIG, b"")),
    # a config block that fills the file, behind a version that is not 2
    "checkpoint-unsupported_version": (load_checkpoint, CHECKPOINT_MAGIC + struct.pack(
        "<II", 1, SPARSE_SIZE - len(CHECKPOINT_MAGIC) - 8)),
    "images-declares_less": (load_binary_images,
                             IMAGE_MAGIC + _image_body((1, 1, 1, 1, 2), b"")),
}


@pytest.mark.parametrize("loader, header", SPARSE_HEADERS.values(), ids=SPARSE_HEADERS.keys())
def test_loaders_read_no_more_than_the_header_declares(tmp_path, loader, header):
    path = tmp_path / "sparse.bin"
    with open(path, "wb") as fh:
        fh.write(header)
        fh.truncate(SPARSE_SIZE)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(str(path))):
            loader(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _check_batch_entries(n, views_each, valid):
    """Every batch entry, InfoNCE's included, accepts ``n`` views of
    ``views_each`` per source exactly when ``valid``; both losses then
    report the same exact AP of a random batch."""
    sim = np.eye(n)
    for call in (lambda: batch_sources(n, views_each),
                 lambda: batch_smooth_ap_loss(sim, views_each, SmoothingConfig()),
                 lambda: info_nce_loss(sim, views_each)):
        if valid:
            call()
        else:
            with pytest.raises(ValueError):
                call()
    if valid:
        assert batch_sources(n, views_each) == n // views_each
        sim = cosine_similarity_matrix(np.random.default_rng(n).normal(size=(n, 3)))
        assert np.array_equal(batch_smooth_ap_loss(sim, views_each, SmoothingConfig()).exact_ap,
                              info_nce_loss(sim, views_each).exact_ap)


@FUZZ
@given(st.tuples(st.integers(2, 6), st.integers(2, 6)))
def test_batch_shape_accepts_every_batch_layout(bk):
    # every B x K batch with B, K >= 2
    _check_batch_entries(bk[0] * bk[1], bk[1], valid=True)


@FUZZ
@given(n=st.integers(0, 40), k=st.integers(-1, 40), as_float=st.booleans())
@example(n=4, k=2, as_float=True)
@example(n=6, k=3, as_float=False)
@example(n=4, k=4, as_float=False)
def test_batch_shape_rejects_every_other_shape(n, k, as_float):
    # B = n // K sources of K views each, B, K >= 2, and K an int
    valid = not as_float and k >= 2 and n % k == 0 and n // k >= 2
    _check_batch_entries(n, float(k) if as_float else k, valid)


# keys that set the size of a run are always drawn small, and Adam's
# learning rate is always drawn, half the time from 1 up to 1e30, where the
# first step leaves finite weights that overflow the next forward pass; up
# to six other rows per config draw from `typed_values`
TINY_ROWS = {("dataset", "dim"): st.integers(1, 8),
             ("dataset", "samples_per_class"): st.integers(1, 12),
             ("optimizer", "learning_rate"): st.one_of(
                 typed_values["real"], st.floats(0.0, 30.0).map(lambda e: repr(10.0**e))),
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


# ablate draws short --B and --K lists whose entries may lie below the
# B, K >= 2 rule, so some grids hold a cell that the config rules reject
grid_lists = st.lists(st.integers(-2, 6), min_size=1, max_size=2).map(
    lambda xs: ",".join(map(str, xs)))
verb_args = st.one_of(
    st.sampled_from([["train"], ["compare"]]),
    st.builds(lambda b, k: ["ablate", f"--B={b}", f"--K={k}"], grid_lists, grid_lists))


def _grid_cell_rejected(text, verb):
    """Whether ``verb`` is an ablate grid with a cell that the config rules
    reject for the config ``text``, which must then exit 2 whole."""
    if verb[0] != "ablate":
        return False
    B, K = ([int(v) for v in arg.partition("=")[2].split(",")] for arg in verb[1:])
    try:
        parse_config(text)
    except ConfigError:
        return True  # the config alone is rejected
    return min(B + K) < 2


@settings(FUZZ, max_examples=200)
@given(verb=verb_args, text=tiny_configs())
@example(verb=["train"], text=tiny_run("[probe]\nlearning_rate = 1e6\n"))
@example(verb=["train"], text=tiny_run("[optimizer]\nlearning_rate = 1e300\n"))
@example(verb=["train"], text=tiny_run("[optimizer]\nlearning_rate = 1e30\n"))
@example(verb=["train"], text=tiny_run("[dataset]\ntrain_fraction = 0.5\n", samples_per_class=2))
@example(verb=["train"], text=tiny_run("[dataset]\ntrain_fraction = 0.99\n", samples_per_class=3))
@example(verb=["train"], text=tiny_run("[dataset]\nnum_classes = 1\n"))
@example(verb=["train"], text=tiny_run("loss = infonce\nK = 3\n"))
@example(verb=["compare"], text=tiny_run("K = 3\n"))
@example(verb=["ablate", "--B=0,-3", "--K=1"], text=tiny_run())
@example(verb=["ablate", "--B=0,4", "--K=2"], text=tiny_run())
@example(verb=["ablate", "--B=2", "--K=2,3"], text=tiny_run("loss = infonce\n"))
def test_cli_exits_with_a_documented_code(tmp_path, verb, text):
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
    code = main([*verb, "--config", str(cfg), "--out", str(out)])
    assert code in (0, 1, 2, 3)
    if _grid_cell_rejected(text, verb):
        assert code == 2
    if code == 2:
        assert not list(out.rglob("config.echo"))
    for metrics in out.rglob("metrics.jsonl"):
        for line in metrics.read_text(encoding="utf-8").splitlines():
            probe_top1 = json.loads(line)["probe_top1"]
            assert probe_top1 is None or math.isfinite(probe_top1)
