"""Golden digests: the bytes that ``--deterministic`` runs of ``train``,
``compare`` and ``ablate`` write, pinned by SHA-256.

Criterion 7 of the acceptance suite checks that a rerun matches itself;
this checks that a run matches the bytes the code wrote before, so a
change that moves the bits by accident fails here.  A change that moves
them on purpose updates the digests below and says so in CHANGES.md.
At K = 2 each query has one positive, so the smoothed-AP kernel's block
among the positives is a single zeroed entry; a train run at K = 4 pins
that block's bits too.  An InfoNCE train run on a seeded image bundle at
K = 3 pins the image views and the InfoNCE arm with several positives,
and ``eval`` of that run's and the K = 2 train run's checkpoints pins
the values that ``eval.json`` reports (the file itself names the
checkpoint's path).

The bytes depend on the numpy build (see the README's Determinism
section), so the digests are stored with the numpy version and the BLAS
name that produced them, and on any other build the test is skipped with
a message naming both; it never passes without checking.  They were the
same on 1 and on 2 BLAS threads.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from s2r2 import (
    AugmentationPolicy,
    EncoderConfig,
    ExperimentConfig,
    SyntheticSpec,
    render_config,
    save_binary_images,
)
from s2r2.cli import EXIT_OK, main

GOLDEN_NUMPY = "2.4.6"
GOLDEN_BLAS = "scipy-openblas"

# every artifact but config.echo, which names the output directory
GOLDEN_DIGESTS = {
    "train/checkpoint.bin": "c730022b0bbd28d7e2b4436be660f880e859989598e84e49c228944af4084b9e",
    "train/metrics.jsonl": "bdc05f87df3f8af537eaa2afda1a976b6d61f7b236030e5b76b839ca1f17680c",
    "compare/comparison.json":
        "179b8dbb638c70c367e03f3b63d241e0d8f00cccf45f55b12dbbc7200ae7b317",
    "compare/infonce/checkpoint.bin":
        "b939bad8ef22b42a2ef7e17db2a147618e1687c6b86014965ad40a925d5f6211",
    "compare/infonce/metrics.jsonl":
        "7d27d923736bfe81984c348c6d9210ecdf20f5124a85a67be261a41e1bb6f335",
    "compare/s2r2/checkpoint.bin":
        "c730022b0bbd28d7e2b4436be660f880e859989598e84e49c228944af4084b9e",
    "compare/s2r2/metrics.jsonl":
        "bdc05f87df3f8af537eaa2afda1a976b6d61f7b236030e5b76b839ca1f17680c",
    "ablate/grid.csv": "04ff9be0e0141f60b853a86f8da7d2da7bd8ccca38338c6ca511cc04e045ef54",
    "ablate/B2_K2/checkpoint.bin":
        "82700a7004f082cec51c848f1a34b679258196ae1575a04ef480a9c1492e6b2c",
    "ablate/B2_K2/metrics.jsonl":
        "51d47c126d095e921a79e14d8da89ff878498ddd63535d5f115351b2259cd684",
    "ablate/B4_K2/checkpoint.bin":
        "c730022b0bbd28d7e2b4436be660f880e859989598e84e49c228944af4084b9e",
    "ablate/B4_K2/metrics.jsonl":
        "bdc05f87df3f8af537eaa2afda1a976b6d61f7b236030e5b76b839ca1f17680c",
}

# `train` at criterion 7's data with B = 4, K = 4
GOLDEN_K4_DIGESTS = {
    "checkpoint.bin": "e93c61e84e93e0ff07871a1eed6d5ff4454e02c582f4072dc0f459c9a63646f2",
    "metrics.jsonl": "5ce24bdacbfae9c9b7bf58d06d721f7c2b4160be9a85e99051a55c1061fa8d28",
}

# `train --deterministic` with loss = infonce and K = 3 on `golden_image_config`'s bundle
GOLDEN_IMAGE_INFONCE_DIGESTS = {
    "checkpoint.bin": "cc3cc8895674dc61ffd9c1ac82eef290d0e96cf410fbc85c7384acfcfd8c1dd9",
    "metrics.jsonl": "2586499b8076249e49f8d517c6580735869b839285d8d3ee30d166c1fdefc379",
}

# what `eval` reports of each golden train run's checkpoint under the run's own
# config, but for the path of the checkpoint
GOLDEN_EVAL = {
    "vectors_k2": {"probe_top1": 1.0, "retrieval_map": 1.0, "n_train": 40, "n_test": 8},
    "images_infonce_k3": {"probe_top1": 0.16666666666666666,
                          "retrieval_map": 0.24124579124579126, "n_train": 12, "n_test": 12},
}


def blas_name() -> str:
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


def artifact_digests(root) -> dict[str, str]:
    """SHA-256 of every file under ``root`` but ``config.echo``, keyed by relative path."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name != "config.echo":
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                out[os.path.relpath(path, root).replace(os.sep, "/")] = digest
    return out


def skip_unless_golden_build():
    """Skip the test unless this is the numpy build that stored the digests."""
    here = (np.__version__, blas_name())
    if here != (GOLDEN_NUMPY, GOLDEN_BLAS):
        pytest.skip(f"digests were stored on numpy {GOLDEN_NUMPY} with {GOLDEN_BLAS}; "
                    f"this is numpy {here[0]} with {here[1]}, so nothing was checked")


def write_config(tmp_path, cfg):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(render_config(cfg))
    return cfg_path


def golden_config(tmp_path, views_each):
    """The path of a config file of criterion 7's shape with K = ``views_each``."""
    skip_unless_golden_build()
    return write_config(tmp_path, ExperimentConfig(
        synthetic=SyntheticSpec(num_classes=4, dim=8, samples_per_class=12),
        encoder=EncoderConfig(hidden_dims=(16,), rep_dim=8, proj_hidden_dim=8, proj_out_dim=8),
        B=4, K=views_each, steps=5, eval_every=5, seed=3,
    ))


def golden_image_config(tmp_path):
    """The path of an InfoNCE config at K = 3 on a seeded bundle of 4 classes
    x 6 images of 8x8x3, whose training and eval views are 6x6."""
    skip_unless_golden_build()
    rng = np.random.default_rng(11)
    bundle = tmp_path / "images.bin"
    save_binary_images(bundle, rng.integers(0, 256, size=(24, 8, 8, 3), dtype=np.uint8),
                       np.repeat(np.arange(4), 6), num_classes=4)
    return write_config(tmp_path, ExperimentConfig(
        dataset_kind="images", image_path=str(bundle),
        augmentation=AugmentationPolicy(output_height=6, output_width=6),
        encoder=EncoderConfig(hidden_dims=(16,), rep_dim=8, proj_hidden_dim=8, proj_out_dim=8),
        train_fraction=0.5, loss="infonce", B=4, K=3, steps=4, eval_every=2, seed=5,
    ))


def test_deterministic_artifacts_match_their_golden_digests(tmp_path):
    cfg_path = golden_config(tmp_path, 2)
    runs = tmp_path / "runs"
    for verb, extra in (("train", []), ("compare", []), ("ablate", ["--B", "2,4", "--K", "2"])):
        assert main([verb, "--config", str(cfg_path), "--out", str(runs / verb),
                     "--deterministic", *extra]) == EXIT_OK

    digests = artifact_digests(runs)
    assert digests == GOLDEN_DIGESTS
    # the ranking arm of compare and the B=4, K=2 cell of ablate are the train run
    for name in ("metrics.jsonl", "checkpoint.bin"):
        assert (digests[f"compare/s2r2/{name}"] == digests[f"ablate/B4_K2/{name}"]
                == digests[f"train/{name}"])


def test_a_train_run_with_several_positives_matches_its_golden_digests(tmp_path):
    cfg_path = golden_config(tmp_path, 4)
    out = tmp_path / "train"
    assert main(["train", "--config", str(cfg_path), "--out", str(out),
                 "--deterministic"]) == EXIT_OK
    assert artifact_digests(out) == GOLDEN_K4_DIGESTS


def test_an_infonce_train_run_on_images_matches_its_golden_digests(tmp_path):
    cfg_path = golden_image_config(tmp_path)
    out = tmp_path / "train"
    assert main(["train", "--config", str(cfg_path), "--out", str(out),
                 "--deterministic"]) == EXIT_OK
    assert artifact_digests(out) == GOLDEN_IMAGE_INFONCE_DIGESTS


@pytest.mark.parametrize("run", sorted(GOLDEN_EVAL))
def test_eval_of_a_golden_checkpoint_reports_its_pinned_values(tmp_path, run):
    if run == "vectors_k2":
        cfg_path, checkpoint = golden_config(tmp_path, 2), GOLDEN_DIGESTS["train/checkpoint.bin"]
    else:
        cfg_path = golden_image_config(tmp_path)
        checkpoint = GOLDEN_IMAGE_INFONCE_DIGESTS["checkpoint.bin"]
    run_dir = tmp_path / "train"
    assert main(["train", "--config", str(cfg_path), "--out", str(run_dir),
                 "--deterministic"]) == EXIT_OK
    assert artifact_digests(run_dir)["checkpoint.bin"] == checkpoint
    assert main(["eval", "--config", str(cfg_path), "--checkpoint",
                 str(run_dir / "checkpoint.bin"), "--out", str(tmp_path / "eval")]) == EXIT_OK
    report = json.loads((tmp_path / "eval" / "eval.json").read_text())
    assert report.pop("checkpoint") == str(run_dir / "checkpoint.bin")
    assert report == GOLDEN_EVAL[run]
