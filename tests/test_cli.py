"""Command-line verbs, exercised in process through main(argv)."""

import json
import os
import struct
import subprocess
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

import s2r2.atomic
import s2r2.cli
import s2r2.experiment
from s2r2 import (
    AugmentationPolicy,
    ContrastiveConfig,
    DivergenceError,
    EncoderConfig,
    ExperimentConfig,
    OptimizerConfig,
    ProbeConfig,
    SyntheticSpec,
    load_checkpoint,
    render_config,
    save_binary_images,
)
from s2r2.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_FAILURE, EXIT_OK, main
from s2r2.config import _FIELDS
from s2r2.encoder import CHECKPOINT_MAGIC, CHECKPOINT_VERSION

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def write_tiny_config(path, **overrides):
    base = dict(
        synthetic=SyntheticSpec(num_classes=4, dim=8, samples_per_class=12),
        encoder=EncoderConfig(hidden_dims=(16,), rep_dim=8, proj_hidden_dim=8, proj_out_dim=8),
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
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # an edit may hold an integer past Python's text limit
    try:
        block = json.dumps(doc).encode()
    finally:
        sys.set_int_max_str_digits(limit)
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

    def test_non_utf8_config_exits_2_naming_the_file(self, tmp_path, capsys):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes(b"[run]\nsteps = 3\xff\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 text")
        assert not out.exists()

    @pytest.mark.parametrize("labels, message", [
        ([], "the dataset has no samples to split"),
        ([0] * 10 + [1], "class 1 has 1 sample(s); need >= 2 to split"),
    ], ids=["empty-bundle", "one-image-class"])
    def test_unsplittable_bundle_exits_2_before_any_artifact(self, tmp_path, capsys, labels,
                                                             message):
        path = tmp_path / "imgs.bin"
        save_binary_images(path, np.zeros((len(labels), 6, 6, 3), dtype=np.uint8),
                           np.array(labels, dtype=np.int64), num_classes=2)
        cfg = write_tiny_config(tmp_path / "exp.cfg", dataset_kind="images",
                                image_path=str(path),
                                augmentation=AugmentationPolicy(output_height=4, output_width=4))
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.cfg")
        assert main(["train", "--config", missing]) == EXIT_FAILURE

    def test_divergence_exits_3(self, tmp_path, capsys, monkeypatch):
        def diverge(config):
            raise DivergenceError("step 1: non-finite loss")

        monkeypatch.setattr(s2r2.cli, "run_experiment", diverge)
        cfg = write_tiny_config(tmp_path / "exp.cfg")
        assert main(["train", "--config", cfg]) == EXIT_DIVERGED
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("diverging, step", [
        # the probe first runs at the first evaluation step
        (dict(probe=ProbeConfig(learning_rate=1e6)), 2),
        (dict(optimizer=OptimizerConfig(learning_rate=1e300)), 1),
        # weights near 1e30 stay finite in float32 until step 2's forward pass
        (dict(optimizer=OptimizerConfig(learning_rate=1e30)), 2),
    ], ids=["probe", "adam", "forward_overflow"])
    def test_real_divergence_exits_3_with_no_score(self, tmp_path, capsys, diverging, step):
        cfg = write_tiny_config(tmp_path / "exp.cfg", **diverging)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert err.startswith(f"error: diverged: step {step}: ")
        assert err.count("step") == 1
        with open(out / "metrics.jsonl", encoding="utf-8") as fh:
            assert all(json.loads(line)["probe_top1"] is None for line in fh)

    def test_tiny_infonce_temperature_exits_3_without_a_runtime_warning(self, tmp_path,
                                                                       capsys):
        # 1/temperature overflows the InfoNCE gradient; backward leaves that
        # to adam_step's finiteness check, so the suite's RuntimeWarning
        # filter would turn any warning on the way into a failure
        cfg = write_tiny_config(tmp_path / "exp.cfg", loss="infonce",
                                contrastive=ContrastiveConfig(temperature=1e-300))
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert err == "error: diverged: step 1: non-finite gradient encountered\n"

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
        assert err.startswith("error: diverged: step 1: the encoder collapsed")
        assert "norm 0.000e+00" in err
        assert (out / "config.echo").exists() and not (out / "checkpoint.bin").exists()

    @pytest.mark.parametrize("verb, text", [
        ("train", "[dataset]\nsamples_per_class = 2\ntrain_fraction = 0.5\n"),
        ("train", "[dataset]\nsamples_per_class = 3\ntrain_fraction = 0.99\n"),
        ("train", "[dataset]\nnum_classes = 1\n"),
        ("train", "[dataset]\nsamples_per_class = 1\n"),
        # 8 train samples for B = 16 distinct sources
        ("train", "[dataset]\nnum_classes = 2\nsamples_per_class = 8\ntrain_fraction = 0.5\n"),
        ("train", "[smoothing]\ntau = 5e-324\n"),
        # a removed key is unknown, so a config.echo that still names it exits 2
        ("train", "[smoothing]\nsmooth_numerator = true\n"),
        ("train", "[dataset]\ncomposition = mixed_source\nmix_count = 2\n"),
    ], ids=["one-test-item", "train-fraction-0.99", "one-class", "one-sample-per-class",
            "split-smaller-than-B", "subnormal-tau", "removed-smooth_numerator",
            "removed-composition"])
    def test_config_fixed_failure_exits_2_before_any_artifact(self, tmp_path, capsys, verb, text):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        out = tmp_path / "run"
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()
        assert not list(tmp_path.rglob("config.echo"))

    @pytest.mark.parametrize("verb, loss", [("train", "infonce"), ("compare", "s2r2")],
                             ids=["infonce-odd-K", "compare-odd-K"])
    def test_odd_k_trains_under_infonce(self, tmp_path, capsys, verb, loss):
        # InfoNCE reads all K - 1 positives of a view, so any K >= 2 trains
        cfg = write_tiny_config(tmp_path / "exp.cfg", loss=loss, K=3, steps=2, eval_every=2)
        out = tmp_path / "run"
        assert main([verb, "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert len(list(out.rglob("checkpoint.bin"))) == (2 if verb == "compare" else 1)

    @pytest.mark.parametrize("out", ['q"dir', "q\rdir"], ids=["double-quote", "carriage-return"])
    def test_out_that_breaks_the_echo_exits_2_before_any_artifact(self, tmp_path, capsys,
                                                                   monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--out", out]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: run.output_dir: a string cannot hold")
        assert os.listdir(tmp_path) == []

    def test_non_finite_real_exits_2_before_any_artifact(self, tmp_path, capsys, monkeypatch):
        # every real key at inf, -inf and nan, each refused naming its key
        monkeypatch.chdir(tmp_path)
        for section, key, kind, _ in _FIELDS:
            for raw in ("inf", "-inf", "nan") if kind == "real" else ():
                cfg = tmp_path / "bad.cfg"
                cfg.write_text(f"[{section}]\n{key} = {raw}\n")
                assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG
                assert capsys.readouterr().err.startswith(f"error: {section}.{key}: ")
                assert os.listdir(tmp_path) == ["bad.cfg"]

    @pytest.mark.parametrize("overflowing", [
        dict(synthetic=SyntheticSpec(num_classes=4, dim=8, samples_per_class=12,
                                     cluster_spread=1e300)),
        dict(augmentation=AugmentationPolicy(noise_std=1e200)),
    ], ids=["cluster_spread", "noise_std"])
    def test_inputs_that_overflow_float32_exit_1_without_a_runtime_warning(self, tmp_path,
                                                                          overflowing):
        # finite float64 samples or views beyond float32's range: the inputs
        # are at fault, not the fresh weights, so this is no divergence
        cfg = write_tiny_config(tmp_path / "exp.cfg", **overflowing)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "s2r2", "train", "--config", cfg,
                               "--out", str(tmp_path / "run")], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == EXIT_FAILURE
        assert proc.stderr == "error: the encoder inputs overflow float32\n"

    def test_subnormal_tau_is_refused_without_a_runtime_warning(self, tmp_path):
        # under pytest a RuntimeWarning is an error; a user's shell only prints it
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[smoothing]\ntau = 5e-324\n")
        out = tmp_path / "run"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "s2r2", "train", "--config", str(cfg),
                               "--out", str(out)], env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("error: [smoothing] tau must be")
        assert "RuntimeWarning" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv, text", [
        (["train", "--out", ""], ""),
        (["train"], '[run]\noutput_dir = ""\n'),
        (["eval", "--checkpoint", "missing.bin", "--out", ""], ""),
    ], ids=["train-flag", "train-config", "eval-flag"])
    def test_empty_output_dir_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                      argv, text):
        monkeypatch.setattr(s2r2.experiment, "build_dataset",
                            lambda config: pytest.fail("built the dataset"))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        assert main([*argv, "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: output_dir must name a directory, got an empty path\n")

    @pytest.mark.parametrize("source, text, key, reason", [
        ("config-line", "[run]\nB = " + "9" * 5000, "run.B", "the integer has too many digits"),
        ("leaf", "[run]\nB = " + "9" * 5000, "run.B", "the integer has too many digits"),
        # Python's int() text echoes up to 200 of the letters, float()'s all of them
        ("config-line", "[run]\nsteps = " + "a" * 5000, "run.steps",
         "as int (not an integer)"),
        ("config-line", "[encoder]\nhidden_dims = " + "a" * 5000, "encoder.hidden_dims",
         "as ints (not an integer)"),
        ("config-line", "[optimizer]\nlearning_rate = " + "a" * 5000, "optimizer.learning_rate",
         "as real (not a real number)"),
    ], ids=["config-line", "leaf", "int-letters", "ints-letters", "real-letters"])
    def test_huge_integer_exits_2_in_config_words(self, tmp_path, capsys, monkeypatch, source,
                                                  text, key, reason):
        # past Python's int-to-text digit limit, as config text or as a value
        # that reaches the leaf rule without text; or no number at all
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text + "\n")
        if source == "leaf":
            monkeypatch.setattr(s2r2.cli, "load_config",
                                lambda path: ExperimentConfig(B=10**5000))
        assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and reason in err
        assert "set_int_max_str_digits" not in err and len(err.encode()) < 300
        assert os.listdir(tmp_path) == ["bad.cfg"]

    @pytest.mark.parametrize("text, leaf, message", [
        ("", dict(B="a" * 5000), "run.B: not an integer, got 'aaaa"),
        ("", dict(encoder=EncoderConfig(hidden_dims=("1," * 25_000,))),
         "encoder.hidden_dims: its echo reads back as (1, 1, 1"),
        ("[encoder]\nhidden_dims = " + "1," * 49_999 + "0", None,
         "[encoder] layer widths must be >= 1, got hidden_dims[49999] < 1"),
        ("[dataset]\nkind = " + "a" * 5000, None, "dataset kind must be"),
        ("[run]\nloss = " + "a" * 5000, None, "loss must be one of"),
        ("[run]\nB = -" + "9" * 4000, None, "B and K must be >= 2, got B=-999"),
        ("[run]\nsteps = -" + "9" * 4000, None, "steps must be >= 1, got -999"),
        ("a" * 5000, None, "line 1: expected key = value, got 'aaaa"),
        ("[" + "a" * 5000, None, "line 1: malformed section header '[aaa"),
        ("[" + "a" * 5000 + "]", None, "line 1: unknown section 'aaaa"),
        ("[run]\n" + "a" * 5000 + " = 1", None, "line 2: unknown key 'aaaa"),
        # a sub-config names its refused integer and the bound, never the value
        ("[probe]\nepochs = -" + "9" * 4000, None, "[probe] epochs must be >= 1\n"),
        ("[dataset]\nmix_count = -" + "9" * 4000, None,
         "[dataset] mix_count must be >= 1 and divide dim\n"),
        ("[dataset]\ndim = " + "9" * 4000 + "\nmix_count = 2", None,
         "[dataset] mix_count must be >= 1 and divide dim\n"),
        ("[augmentation]\noutput_height = -" + "9" * 4000, None,
         "[augmentation] output_height and output_width must both be >= 1, or both 0 "
         "to keep the native size\n"),
    ], ids=["leaf-int", "leaf-echo", "many-widths", "dataset-kind", "loss",
            "long-B", "long-steps", "line", "section-header", "section", "key",
            "probe-epochs", "dataset-mix_count", "dataset-dim", "augmentation-output_height"])
    def test_long_value_exits_2_with_a_short_echo(self, tmp_path, capsys, monkeypatch, text,
                                                  leaf, message):
        # every refused value or line is echoed up to its first 40 characters
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text + "\n")
        if leaf is not None:  # values that reach the leaf rule without text
            monkeypatch.setattr(s2r2.cli, "load_config", lambda path: ExperimentConfig(**leaf))
        assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert len(err.encode()) < 300
        assert os.listdir(tmp_path) == ["bad.cfg"]

    @pytest.mark.parametrize("argv, value, reason", [
        (["train", "--seed"], "9" * 5000, "the integer has too many digits"),
        (["selftest", "--seed"], "9" * 5000, "the integer has too many digits"),
        (["ablate", "--B"], "9" * 5000, "the integer has too many digits"),
        (["ablate", "--K"], "9" * 5000, "the integer has too many digits"),
        (["train", "--seed"], "a" * 5000, "as int (not an integer)"),
        (["selftest", "--seed"], "a" * 5000, "as int (not an integer)"),
        (["ablate", "--B"], "a" * 5000, "as ints (not an integer)"),
        (["ablate", "--K"], "a" * 5000, "as ints (not an integer)"),
        (["train", "--out"], "a" * 5000 + '"', "run.output_dir: unbalanced quotes, got 'aaaa"),
    ], ids=["train-seed", "selftest-seed", "ablate-B", "ablate-K", "train-seed-letters",
            "selftest-seed-letters", "ablate-B-letters", "ablate-K-letters", "train-out-letters"])
    def test_huge_integer_flag_exits_2_in_config_words(self, tmp_path, capsys, monkeypatch,
                                                       argv, value, reason):
        monkeypatch.chdir(tmp_path)
        try:
            code = main([*argv, value])
        except SystemExit as exc:  # argparse refuses a --seed it cannot type
            code = exc.code
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert reason in err and "set_int_max_str_digits" not in err
        assert len(err.encode()) < 300
        assert os.listdir(tmp_path) == []

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
                                augmentation=AugmentationPolicy(output_height=4, output_width=4))
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

    @pytest.mark.parametrize("kind", ["vectors", "images"])
    def test_no_split_is_alive_when_the_probe_starts(self, tmp_path, capsys, monkeypatch, kind):
        # numpy arrays take weak references: the samples of every split that
        # eval_inputs returns, and of every dataset whose features are
        # extracted, must be freed before the probe allocates its buffers
        overrides = {}
        if kind == "images":
            rng = np.random.default_rng(0)
            save_binary_images(tmp_path / "imgs.bin",
                               rng.integers(0, 256, size=(40, 6, 6, 3), dtype=np.uint8),
                               np.repeat(np.arange(4), 10), num_classes=4)
            overrides = dict(dataset_kind="images", image_path=str(tmp_path / "imgs.bin"),
                             augmentation=AugmentationPolicy(output_height=4, output_width=4))
        cfg = write_tiny_config(tmp_path / "exp.cfg", **overrides)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(run_dir)]) == EXIT_OK
        refs, alive_at_probe = [], []
        real_inputs, real_extract = s2r2.cli.eval_inputs, s2r2.cli.extract_features
        real_probe = s2r2.experiment.train_linear_probe

        def inputs(config):
            splits = real_inputs(config)
            refs.extend(weakref.ref(ds.samples) for ds in splits)
            return splits

        def extract(params, dataset):
            refs.append(weakref.ref(dataset.samples))
            return real_extract(params, dataset)

        def probe(*args, **kwargs):
            alive_at_probe.append(sum(ref() is not None for ref in refs))
            return real_probe(*args, **kwargs)

        monkeypatch.setattr(s2r2.cli, "eval_inputs", inputs)
        monkeypatch.setattr(s2r2.cli, "extract_features", extract)
        monkeypatch.setattr(s2r2.experiment, "train_linear_probe", probe)
        assert main(["eval", "--config", cfg,
                     "--checkpoint", str(run_dir / "checkpoint.bin")]) == EXIT_OK
        assert len(refs) == 5 and alive_at_probe == [0]

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
            synthetic=SyntheticSpec(num_classes=4, dim=16, samples_per_class=12),
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
        # past Python's int-to-text digit limit, which json refuses in its own words
        (lambda doc: doc.update(rep_dim=10**5000 - 1), 0, "the integer has too many digits"),
        # long values: each refusal names its key or width, never the value or the rest
        (lambda doc: doc.update(rep_dim="a" * 100_000), 0, "'rep_dim' is not an integer"),
        (lambda doc: doc.update(hidden_dims=[1] * 49_999 + [0]), 0,
         "got hidden_dims[49999] < 1"),
        (lambda doc: doc.update(rep_dim=-10**4000), 0, "got rep_dim < 1"),
        (lambda doc: doc.update(input_dim=-10**4000), 0, "got input_dim < 1"),
    ], ids=["missing_key", "wrong_type", "short_payload", "huge_declared_shape",
            "huge_integer", "long_text_width", "many_widths", "long_negative_width",
            "long_negative_input_dim"])
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
        assert "set_int_max_str_digits" not in err
        assert len(err.encode()) - len(str(checkpoint)) < 300

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
                    "proj_out_dim": 1}).encode(),
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


class TestVersion1Checkpoint:
    """A version-1 file, as the format's first version wrote it: the same
    tensors behind a seven-key config block that also holds the ReLU knob
    and the init seed.  Only version 2 loads."""

    def write_both(self, tmp_path, **v1_keys):
        """``(config, v2 path, v1 path)`` of a trained tiny run."""
        cfg = write_tiny_config(tmp_path / "exp.cfg")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_OK
        v2 = tmp_path / "run" / "checkpoint.bin"
        blob = v2.read_bytes()
        header = 16 + int.from_bytes(blob[12:16], "little")
        doc = {**json.loads(blob[16:header]), "activation": "relu",
               "seed": s2r2.experiment.stream_seed(0, "init"), **v1_keys}
        block = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        v1 = tmp_path / "v1.bin"
        v1.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", 1, len(block)) + block
                       + blob[header:])
        return cfg, v2, v1

    @pytest.mark.parametrize("activation", ["relu", "a" * 100_000], ids=["relu", "long"])
    def test_exits_1_as_an_unsupported_version(self, tmp_path, capsys, activation):
        cfg, _, v1 = self.write_both(tmp_path, activation=activation)
        capsys.readouterr()
        assert main(["eval", "--config", cfg, "--checkpoint", str(v1)]) == EXIT_FAILURE
        assert capsys.readouterr().err == f"error: {v1}: unsupported checkpoint version 1\n"

    def test_a_version_2_block_with_the_dropped_keys_exits_1(self, tmp_path, capsys):
        cfg, v2, _ = self.write_both(tmp_path)
        rewrite_checkpoint(v2, lambda doc: doc.update(activation="relu", seed=0))
        capsys.readouterr()
        assert main(["eval", "--config", cfg, "--checkpoint", str(v2)]) == EXIT_FAILURE
        assert "keys" in capsys.readouterr().err


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

    @pytest.mark.parametrize("B, K", [("0,-3", "1"), ("0,4", "2")])
    def test_invalid_cell_exits_2_before_any_cell_trains(self, tmp_path, capsys, B, K):
        cfg = write_tiny_config(tmp_path / "exp.cfg", steps=2, eval_every=2)
        out = tmp_path / "g"
        code = main(["ablate", "--config", cfg, "--out", str(out), "--B", B, "--K", K])
        assert code == EXIT_CONFIG
        assert "grid cell B=0" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_list_exits_2(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "exp.cfg")
        assert main(["ablate", "--config", cfg, "--out", str(tmp_path / "g"),
                     "--B", "two", "--K", "2"]) == EXIT_CONFIG

    def test_empty_list_exits_2_before_any_artifact(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "exp.cfg")
        out = tmp_path / "g"
        assert main(["ablate", "--config", cfg, "--out", str(out), "--B", ","]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: a grid needs at least one B and one K value\n"
        assert not out.exists()


class TestCompare:
    def test_writes_comparison_summary(self, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "exp.cfg", steps=2, eval_every=2)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "comparison.json").exists()
        assert "gap" in capsys.readouterr().out

    @pytest.mark.parametrize("mix_count, ceiling", [(1, True), (2, False)])
    def test_says_when_it_cannot_tell_the_arms_apart(self, tmp_path, capsys, mix_count,
                                                      ceiling):
        # the tiny clusters put both arms at probe top-1 1.0; half-distractor
        # vectors keep both below it
        cfg = write_tiny_config(tmp_path / "exp.cfg", steps=2, eval_every=2,
                                synthetic=SyntheticSpec(num_classes=4, dim=8,
                                                        samples_per_class=12,
                                                        mix_count=mix_count))
        out = tmp_path / "cmp"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        summary = json.loads((out / "comparison.json").read_text())
        assert (summary["s2r2_final_probe_top1"] == summary["infonce_final_probe_top1"]
                == 1.0) == ceiling
        assert lines[1:] == ([
            "compare: both arms reach probe top-1 1.0, so this data cannot tell them "
            "apart; [dataset] mix_count = 2 is a set that separates them"] if ceiling else [])

    def test_diverging_arm_exits_3_and_keeps_the_arm_before_it(self, tmp_path, capsys,
                                                                monkeypatch):
        real_run = s2r2.experiment.run_experiment

        def infonce_diverges(config):
            if config.loss == "infonce":
                raise DivergenceError("step 1: non-finite loss")
            return real_run(config)

        monkeypatch.setattr(s2r2.experiment, "run_experiment", infonce_diverges)
        cfg = write_tiny_config(tmp_path / "exp.cfg", steps=2, eval_every=2)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == EXIT_DIVERGED
        assert capsys.readouterr().err == "error: diverged: step 1: non-finite loss\n"
        summary = json.loads((out / "comparison.json").read_text())
        assert summary["s2r2_final_probe_top1"] is not None
        assert summary["infonce_final_probe_top1"] is None and summary["probe_gap"] is None
        assert [p["step"] for p in summary["s2r2_eval_points"]] == [2]
        assert summary["infonce_eval_points"] == []
        assert not list(out.glob("*.tmp"))


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

    @pytest.mark.parametrize("verb", ["train", "selftest"])
    def test_seed_is_shown_as_the_readmes_n(self, verb, capsys):
        # any non-negative integer seeds a run, 2**70 included: no 64-bit bound
        with pytest.raises(SystemExit):
            main([verb, "--help"])
        assert "[--seed N]" in capsys.readouterr().out

    def test_module_entry_point_exists(self):
        import s2r2.__main__  # noqa: F401
