"""Command-line verbs, exercised in process through main(argv)."""

import json
import os
import struct
from collections import Counter

import numpy as np
import pytest

import s2r2.atomic
import s2r2.cli
import s2r2.experiment
from s2r2 import (
    AugmentationPolicy,
    DivergenceError,
    ExperimentConfig,
    OptimizerConfig,
    ProbeConfig,
    SyntheticSpec,
    render_config,
    save_binary_images,
)
from s2r2.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_FAILURE, EXIT_OK, main
from s2r2.encoder import CHECKPOINT_MAGIC, CHECKPOINT_VERSION


def write_tiny_config(path, **overrides):
    base = dict(
        synthetic=SyntheticSpec(num_classes=4, dim=8, samples_per_class=12, seed=0),
        hidden_dims=(16,),
        rep_dim=8,
        proj_hidden_dim=8,
        proj_out_dim=8,
        B=4,
        K=2,
        steps=4,
        eval_every=2,
    )
    base.update(overrides)
    path.write_text(render_config(ExperimentConfig(**base)))
    return str(path)


def rewrite_checkpoint(path, edit_config=lambda doc: None, payload_cut=0):
    """Re-save a checkpoint with its JSON config block edited and/or its
    tensor payload shortened by ``payload_cut`` bytes."""
    blob = path.read_bytes()
    cfg_len = int.from_bytes(blob[12:16], "little")
    doc = json.loads(blob[16 : 16 + cfg_len])
    edit_config(doc)
    block = json.dumps(doc).encode()
    payload = blob[16 + cfg_len : len(blob) - payload_cut]
    path.write_bytes(blob[:12] + len(block).to_bytes(4, "little") + block + payload)


class TestTrain:
    def test_success_writes_artifacts(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "exp.cfg")
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "metrics.jsonl").exists()
        assert (out / "checkpoint.bin").exists()
        assert (out / "config.echo").exists()
        assert "probe top-1" in capsys.readouterr().out

    def test_defaults_only_no_config_file(self, tmp_path, capsys):
        # no --config: defaults apply, overridden to a desk-scale budget via
        # a config written from the default with smaller steps
        cfg = write_tiny_config(tmp_path / "exp.cfg", steps=2, eval_every=2)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == EXIT_OK

    def test_seed_override_lands_in_echo(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "exp.cfg")
        out = tmp_path / "run"
        main(["train", "--config", cfg, "--out", str(out), "--seed", "77"])
        assert "seed = 77" in (out / "config.echo").read_text()

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[run]\nsteps = banana\n")
        assert main(["train", "--config", str(bad)]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["rep_dim = 0", "hidden_dims = 8,-1"])
    def test_invalid_layer_width_exits_2_before_echo(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[encoder]\n{line}\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")
        assert not (out / "config.echo").exists()

    def test_negative_output_size_exits_2_before_echo(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[augmentation]\noutput_height = -3\noutput_width = -3\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")
        assert not (out / "config.echo").exists()

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.cfg")
        assert main(["train", "--config", missing]) == EXIT_FAILURE

    def test_divergence_exits_3(self, tmp_path, capsys, monkeypatch):
        def diverge(config):
            raise DivergenceError("non-finite loss at step 1")

        monkeypatch.setattr(s2r2.cli, "run_experiment", diverge)
        cfg = write_tiny_config(tmp_path / "exp.cfg")
        assert main(["train", "--config", cfg]) == EXIT_DIVERGED
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("diverging", [
        dict(probe=ProbeConfig(learning_rate=1e6)),
        dict(optimizer=OptimizerConfig(learning_rate=1e300)),
        # weights near 1e30 stay finite in float32 until step 2's forward pass
        dict(optimizer=OptimizerConfig(learning_rate=1e30)),
    ], ids=["probe", "adam", "forward_overflow"])
    def test_real_divergence_exits_3_with_no_score(self, tmp_path, capsys, diverging):
        cfg = write_tiny_config(tmp_path / "exp.cfg", **diverging)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_DIVERGED
        assert capsys.readouterr().err.startswith("error: diverged:")
        with open(out / "metrics.jsonl", encoding="utf-8") as fh:
            assert all(json.loads(line)["probe_top1"] is None for line in fh)

    @pytest.mark.parametrize("seed", [1, 3])
    def test_collapsed_projection_exits_3_naming_the_step(self, tmp_path, capsys, seed):
        # one ReLU unit in the projection head: at these seeds it is dead for
        # a whole batch at step 1, so a projection row is exactly zero
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[dataset]\nnum_classes = 3\ndim = 8\nsamples_per_class = 10\n"
                       "[encoder]\nhidden_dims = 8\nrep_dim = 4\nproj_hidden_dim = 1\n"
                       "proj_out_dim = 4\n"
                       f"[run]\nB = 4\nK = 2\nsteps = 3\neval_every = 3\nseed = {seed}\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert err.startswith("error: diverged: the encoder collapsed at step ")
        assert "norm 0.000e+00" in err
        assert (out / "config.echo").exists() and not (out / "checkpoint.bin").exists()

    @pytest.mark.parametrize("verb, text", [
        ("train", "[dataset]\nsamples_per_class = 2\ntrain_fraction = 0.5\n"),
        ("train", "[dataset]\nsamples_per_class = 3\ntrain_fraction = 0.99\n"),
        ("train", "[dataset]\nnum_classes = 1\n"),
        ("train", "[dataset]\nsamples_per_class = 1\n"),
        # 8 train samples for B = 16 distinct sources
        ("train", "[dataset]\nnum_classes = 2\nsamples_per_class = 8\ntrain_fraction = 0.5\n"),
        ("train", "[run]\nloss = infonce\nK = 3\n"),
        ("compare", "[run]\nK = 3\n"),
    ], ids=["one-test-item", "train-fraction-0.99", "one-class", "one-sample-per-class",
            "split-smaller-than-B",
            "infonce-odd-K", "compare-odd-K"])
    def test_config_fixed_failure_exits_2_before_any_artifact(self, tmp_path, capsys, verb, text):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        out = tmp_path / "run"
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()
        assert not list(tmp_path.rglob("config.echo"))

    def test_out_of_memory_exits_1(self, capsys, monkeypatch):
        def exhaust(config):
            raise MemoryError("Unable to allocate 1.86 TiB for an array")

        monkeypatch.setattr(s2r2.cli, "run_experiment", exhaust)
        assert main(["train"]) == EXIT_FAILURE
        assert capsys.readouterr().err == (
            "error: out of memory: Unable to allocate 1.86 TiB for an array\n")


class TestEval:
    def test_probe_existing_checkpoint(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "exp.cfg")
        run_dir = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(run_dir)]) == EXIT_OK
        capsys.readouterr()

        out = tmp_path / "ev"
        code = main(["eval", "--config", cfg,
                     "--checkpoint", str(run_dir / "checkpoint.bin"),
                     "--out", str(out)])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["probe_top1"] <= 1.0
        assert 0.0 <= report["retrieval_map"] <= 1.0
        assert json.loads((out / "eval.json").read_text()) == report

    def test_bundle_may_declare_a_class_it_does_not_use(self, tmp_path, capsys):
        # labels 0-3 in a bundle that declares five classes
        rng = np.random.default_rng(0)
        path = tmp_path / "imgs.bin"
        save_binary_images(path, rng.integers(0, 256, size=(40, 6, 6, 3), dtype=np.uint8),
                           np.repeat(np.arange(4), 10), num_classes=5)
        cfg = write_tiny_config(tmp_path / "exp.cfg", dataset_kind="images",
                                image_path=str(path),
                                augmentation=AugmentationPolicy(output_size=(4, 4)))
        run_dir = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(run_dir)]) == EXIT_OK
        capsys.readouterr()
        assert main(["eval", "--config", cfg,
                     "--checkpoint", str(run_dir / "checkpoint.bin")]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert (report["n_train"], report["n_test"]) == (32, 8)
        assert 0.0 <= report["retrieval_map"] <= 1.0

    def test_failed_report_write_keeps_previous_eval_json(self, tmp_path, capsys, monkeypatch):
        cfg = write_tiny_config(tmp_path / "exp.cfg")
        run_dir = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(run_dir)]) == EXIT_OK
        out = tmp_path / "ev"
        argv = ["eval", "--config", cfg, "--checkpoint", str(run_dir / "checkpoint.bin"),
                "--out", str(out)]
        assert main(argv) == EXIT_OK
        before = (out / "eval.json").read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(s2r2.atomic.os, "replace", refuse)
        assert main(argv) == EXIT_FAILURE
        assert "disk full" in capsys.readouterr().err
        assert (out / "eval.json").read_bytes() == before
        assert os.listdir(out) == ["eval.json"]

    def test_eval_matches_final_training_metric(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "exp.cfg")
        run_dir = tmp_path / "run"
        main(["train", "--config", cfg, "--out", str(run_dir)])
        capsys.readouterr()
        final = json.loads((run_dir / "metrics.jsonl").read_text().splitlines()[-1])

        main(["eval", "--config", cfg, "--checkpoint", str(run_dir / "checkpoint.bin")])
        report = json.loads(capsys.readouterr().out)
        assert report["probe_top1"] == final["probe_top1"]
        assert report["retrieval_map"] == final["retrieval_map"]

    def test_missing_checkpoint_exits_1(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "exp.cfg")
        assert main(["eval", "--config", cfg,
                     "--checkpoint", str(tmp_path / "nope.bin")]) == EXIT_FAILURE

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "exp.cfg")
        run_dir = tmp_path / "run"
        main(["train", "--config", cfg, "--out", str(run_dir)])
        wider = write_tiny_config(
            tmp_path / "wider.cfg",
            synthetic=SyntheticSpec(num_classes=4, dim=16, samples_per_class=12, seed=0),
        )
        assert main(["eval", "--config", wider,
                     "--checkpoint", str(run_dir / "checkpoint.bin")]) == EXIT_CONFIG


    @pytest.mark.parametrize("edit_config, payload_cut, message", [
        (lambda doc: doc.pop("rep_dim"), 0, "keys"),
        (lambda doc: doc.update(hidden_dims=5), 0, "hidden_dims"),
        (lambda doc: None, 4, "truncated"),
        # a header may declare any width; the payload length is checked
        # against the declared shapes before a single tensor is built
        (lambda doc: doc.update(input_dim=2**40, hidden_dims=[2**40]), 0, "truncated"),
    ], ids=["missing_key", "wrong_type", "short_payload", "huge_declared_shape"])
    def test_corrupt_checkpoint_exits_1(self, tmp_path, capsys, edit_config, payload_cut,
                                        message):
        cfg = write_tiny_config(tmp_path / "exp.cfg")
        run_dir = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(run_dir)]) == EXIT_OK
        capsys.readouterr()
        checkpoint = run_dir / "checkpoint.bin"
        rewrite_checkpoint(checkpoint, edit_config, payload_cut)
        assert main(["eval", "--config", cfg, "--checkpoint", str(checkpoint)]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_non_finite_checkpoint_exits_1_before_extraction(self, tmp_path, capsys,
                                                              monkeypatch):
        cfg = write_tiny_config(tmp_path / "exp.cfg")
        run_dir = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(run_dir)]) == EXIT_OK
        capsys.readouterr()
        checkpoint = run_dir / "checkpoint.bin"
        blob = checkpoint.read_bytes()
        checkpoint.write_bytes(blob[:-4] + struct.pack("<f", float("nan")))
        extracted = []
        monkeypatch.setattr(s2r2.cli, "extract_features",
                            lambda *args: extracted.append(args) or pytest.fail("extracted"))
        assert main(["eval", "--config", cfg, "--checkpoint", str(checkpoint)]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(checkpoint) in err and "non-finite" in err
        assert extracted == []

    def test_overflowing_checkpoint_exits_3(self, tmp_path, capsys):
        # finite weights of 1e30 load, but overflow float32 in extraction
        cfg = write_tiny_config(tmp_path / "exp.cfg")
        run_dir = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(run_dir)]) == EXIT_OK
        capsys.readouterr()
        checkpoint = run_dir / "checkpoint.bin"
        blob = checkpoint.read_bytes()
        header = 16 + int.from_bytes(blob[12:16], "little")
        huge = struct.pack("<f", 1e30) * ((len(blob) - header) // 4)
        checkpoint.write_bytes(blob[:header] + huge)
        out = tmp_path / "eval"
        assert main(["eval", "--config", cfg, "--checkpoint", str(checkpoint),
                     "--out", str(out)]) == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert err.startswith("error: diverged: non-finite representations")
        assert not out.exists()

    @pytest.mark.parametrize("block", [
        b"{bad",
        b"\xff\xfe",
        json.dumps({"input_dim": 0, "hidden_dims": [], "rep_dim": 1, "proj_hidden_dim": 1,
                    "proj_out_dim": 1, "activation": "relu", "seed": 0}).encode(),
    ], ids=["malformed_json", "not_utf8", "zero_input_dim"])
    def test_bad_checkpoint_config_block_exits_1_naming_the_file(self, tmp_path, capsys,
                                                                 block):
        cfg = write_tiny_config(tmp_path / "exp.cfg")
        checkpoint = tmp_path / "bad.bin"
        checkpoint.write_bytes(CHECKPOINT_MAGIC
                               + struct.pack("<II", CHECKPOINT_VERSION, len(block)) + block)
        assert main(["eval", "--config", cfg, "--checkpoint", str(checkpoint)]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(checkpoint) in err

    def test_deeply_nested_checkpoint_header_exits_1(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "exp.cfg")
        checkpoint = tmp_path / "nested.bin"
        block = b"[" * 200_000
        checkpoint.write_bytes(CHECKPOINT_MAGIC + CHECKPOINT_VERSION.to_bytes(4, "little")
                               + len(block).to_bytes(4, "little") + block)
        assert main(["eval", "--config", cfg, "--checkpoint", str(checkpoint)]) == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(checkpoint) in err


class TestAblate:
    def test_custom_grid(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "exp.cfg", steps=2, eval_every=2)
        out = tmp_path / "grid"
        code = main(["ablate", "--config", cfg, "--out", str(out),
                     "--B", "2,3", "--K", "2"])
        assert code == EXIT_OK
        assert (out / "grid.csv").exists()
        printed = capsys.readouterr().out
        assert printed.count("ablate: B=") == 2

    def test_partial_failure_still_exits_0(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "exp.cfg", steps=2, eval_every=2)
        code = main(["ablate", "--config", cfg, "--out", str(tmp_path / "g"),
                     "--B", "2,64", "--K", "2"])
        assert code == EXIT_OK

    def test_all_cells_failing_exits_1(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "exp.cfg", steps=2, eval_every=2)
        code = main(["ablate", "--config", cfg, "--out", str(tmp_path / "g"),
                     "--B", "64", "--K", "2"])
        assert code == EXIT_FAILURE

    def test_bad_list_exits_2(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "exp.cfg")
        assert main(["ablate", "--config", cfg, "--out", str(tmp_path / "g"),
                     "--B", "two", "--K", "2"]) == EXIT_CONFIG


class TestCompare:
    def test_writes_comparison_summary(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "exp.cfg", steps=2, eval_every=2)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "comparison.json").exists()
        assert "gap" in capsys.readouterr().out


class TestBenchSetupMarkers:
    # bench/run.py times a verb's set-up up to the first call of these
    # module globals, so train and eval must still reach their work
    # through them
    MARKERS = {"train": (s2r2.experiment, "sample_batch"), "eval": (s2r2.cli, "extract_features")}

    def test_train_and_eval_call_their_markers(self, tmp_path, capsys, monkeypatch):
        calls = Counter()
        for verb, (module, name) in self.MARKERS.items():
            def counted(*args, _verb=verb, _fn=getattr(module, name), **kwargs):
                calls[_verb] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        cfg = write_tiny_config(tmp_path / "exp.cfg")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_OK
        assert calls["train"] == 4  # one batch per step
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "eval"),
                     "--checkpoint", str(tmp_path / "run" / "checkpoint.bin")]) == EXIT_OK
        assert calls["eval"] > 0


class TestSelftest:
    def test_selftest_passes(self, capsys, seed=None):
        argv = ["selftest"] if seed is None else ["selftest", "--seed", str(seed)]
        assert main(argv) == EXIT_OK
        printed = capsys.readouterr().out
        assert printed.count("[PASS]") == 6
        assert "[FAIL]" not in printed
        assert "6/6 checks passed" in printed

    # 5, 14 and 111 draw saturated or kinked gradient instances, which the
    # checks redraw as acceptance criterion 2 does
    @pytest.mark.parametrize("seed", [0, 5, 14, 111])
    def test_selftest_passes_at_seed(self, seed, capsys):
        self.test_selftest_passes(capsys, seed)

    def test_negative_seed_exits_2(self, capsys):
        assert main(["selftest", "--seed", "-1"]) == EXIT_CONFIG
        assert "error: seed must be a non-negative integer" in capsys.readouterr().err


class TestParser:
    def test_missing_verb_raises_system_exit(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_verb_raises_system_exit(self):
        with pytest.raises(SystemExit):
            main(["dance"])

    def test_module_entry_point_exists(self):
        import s2r2.__main__  # noqa: F401
