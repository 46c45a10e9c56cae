"""End-to-end experiment runner: artifacts, seed streams, grids, comparisons."""

import csv
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from s2r2 import (
    ExperimentConfig,
    SyntheticSpec,
    compare_losses,
    load_checkpoint,
    parse_config,
    run_ablation_grid,
    run_experiment,
)
import s2r2.experiment as experiment
from s2r2.ranking import mean_exact_ap
from s2r2.experiment import (
    CHECKPOINT_FILE,
    COMPARISON_FILE,
    CONFIG_ECHO_FILE,
    GRID_FILE,
    METRICS_FILE,
    MetricsRecord,
    batch_seed_sequence,
    stream_seed,
)


def tiny_config(out, **overrides):
    base = dict(
        synthetic=SyntheticSpec(num_classes=4, dim=8, samples_per_class=12, seed=0),
        hidden_dims=(16,),
        rep_dim=8,
        proj_hidden_dim=8,
        proj_out_dim=8,
        B=4,
        K=2,
        steps=6,
        eval_every=3,
        output_dir=str(out),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSeedStreams:
    def test_streams_are_distinct(self):
        seeds = {stream_seed(0, name) for name in ("data", "augmentation", "init", "probe")}
        assert len(seeds) == 4

    def test_indices_are_distinct(self):
        assert stream_seed(0, "data", 0) != stream_seed(0, "data", 1)

    def test_reproducible(self):
        assert stream_seed(123, "probe") == stream_seed(123, "probe")

    def test_batch_sequences_differ_by_step(self):
        a = np.random.default_rng(batch_seed_sequence(0, 1)).random(4)
        b = np.random.default_rng(batch_seed_sequence(0, 2)).random(4)
        assert not np.array_equal(a, b)

    def test_unknown_stream_rejected(self):
        with pytest.raises(KeyError):
            stream_seed(0, "banana")


class TestMetricsRecord:
    def test_json_round_trip(self):
        rec = MetricsRecord(step=3, train_loss=0.5, mean_batch_ap=0.75,
                            probe_top1=0.9, retrieval_map=0.8, wall_time_s=0.01)
        assert json.loads(rec.to_json()) == dataclasses.asdict(rec)

    def test_eval_fields_default_to_none(self):
        rec = MetricsRecord(step=1, train_loss=1.0, mean_batch_ap=0.5)
        parsed = json.loads(rec.to_json())
        assert parsed["probe_top1"] is None
        assert parsed["retrieval_map"] is None


class TestRunExperiment:
    def test_artifacts_and_record_schema(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        result = run_experiment(cfg)

        for name in (METRICS_FILE, CHECKPOINT_FILE, CONFIG_ECHO_FILE):
            assert os.path.exists(os.path.join(result.output_dir, name))

        with open(os.path.join(result.output_dir, METRICS_FILE)) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == cfg.steps
        records = [json.loads(line) for line in lines]
        assert records == [dataclasses.asdict(r) for r in result.records]
        assert [r["step"] for r in records] == list(range(1, cfg.steps + 1))
        for r in records:
            assert np.isfinite(r["train_loss"])
            assert 0.0 <= r["mean_batch_ap"] <= 1.0

    def test_eval_cadence_includes_final_step(self, tmp_path):
        cfg = tiny_config(tmp_path / "run", steps=7, eval_every=3)
        result = run_experiment(cfg)
        eval_steps = [r.step for r in result.records if r.probe_top1 is not None]
        assert eval_steps == [3, 6, 7]
        for r in result.records:
            if r.probe_top1 is not None:
                assert 0.0 <= r.probe_top1 <= 1.0
                assert 0.0 <= r.retrieval_map <= 1.0

    def test_config_echo_parses_back(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        result = run_experiment(cfg)
        with open(os.path.join(result.output_dir, CONFIG_ECHO_FILE)) as fh:
            assert parse_config(fh.read()) == cfg

    def test_checkpoint_matches_returned_params(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        result = run_experiment(cfg)
        loaded = load_checkpoint(os.path.join(result.output_dir, CHECKPOINT_FILE))
        for got, want in zip(loaded.weights, result.params.weights):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("loss", ["s2r2", "infonce"])
    def test_mean_batch_ap_is_exact_ap_of_the_batch(self, tmp_path, monkeypatch, loss):
        expected = []
        real = experiment.cosine_similarity_matrix

        def recording(projections):
            sim = real(projections)
            expected.append(sim)
            return sim

        monkeypatch.setattr(experiment, "cosine_similarity_matrix", recording)
        groups = np.repeat(np.arange(4), 2)  # tiny_config's B = 4, K = 2
        result = run_experiment(tiny_config(tmp_path / "run", loss=loss))
        assert [r.mean_batch_ap for r in result.records] == [
            mean_exact_ap(sim, groups) for sim in expected]

    def test_killed_run_keeps_records_up_to_last_evaluation(self, tmp_path):
        # the process dies inside the second evaluation (step 100 of 200)
        script = (
            "import os, sys\n"
            "import s2r2.experiment as experiment\n"
            "from s2r2 import ExperimentConfig\n"
            "real, calls = experiment.evaluate, []\n"
            "def dying(*args):\n"
            "    calls.append(1)\n"
            "    if len(calls) == 2:\n"
            "        os._exit(3)\n"
            "    return real(*args)\n"
            "experiment.evaluate = dying\n"
            "experiment.run_experiment(ExperimentConfig(output_dir=sys.argv[1], "
            "deterministic=True))\n"
        )
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / "run"
        proc = subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        lines = (out / METRICS_FILE).read_text().splitlines()
        assert [json.loads(line)["step"] for line in lines] == list(range(1, 51))
        assert json.loads(lines[-1])["probe_top1"] is not None

    def test_deterministic_flag_zeroes_wall_time(self, tmp_path):
        cfg = tiny_config(tmp_path / "run", deterministic=True)
        result = run_experiment(cfg)
        assert all(r.wall_time_s == 0.0 for r in result.records)

    def test_same_seed_reruns_are_byte_identical(self, tmp_path):
        a = run_experiment(tiny_config(tmp_path / "a", deterministic=True))
        b = run_experiment(tiny_config(tmp_path / "b", deterministic=True))
        for name in (METRICS_FILE, CHECKPOINT_FILE):
            pa = os.path.join(a.output_dir, name)
            pb = os.path.join(b.output_dir, name)
            assert open(pa, "rb").read() == open(pb, "rb").read()

    def test_different_seeds_diverge(self, tmp_path):
        a = run_experiment(tiny_config(tmp_path / "a", seed=0))
        b = run_experiment(tiny_config(tmp_path / "b", seed=1))
        assert a.records[0].train_loss != b.records[0].train_loss

    def test_infonce_loss_arm_runs(self, tmp_path):
        cfg = tiny_config(tmp_path / "run", loss="infonce")
        result = run_experiment(cfg)
        assert np.isfinite(result.final_loss)
        assert result.final_probe_top1 is not None

    def test_resized_image_views_train_and_evaluate(self, tmp_path):
        # encoder width must follow the view geometry when the policy
        # resizes images, and evaluation must feed matching frames
        from s2r2 import AugmentationPolicy, save_binary_images

        rng = np.random.default_rng(0)
        images = rng.integers(0, 255, size=(24, 6, 6, 3), dtype=np.uint8)
        images[:12, :3] = 250  # crude class signal
        labels = np.repeat([0, 1], 12)
        path = tmp_path / "imgs.bin"
        save_binary_images(path, images, labels, num_classes=2)

        cfg = ExperimentConfig(
            dataset_kind="images", image_path=str(path),
            augmentation=AugmentationPolicy(output_size=(4, 4)),
            hidden_dims=(16,), rep_dim=8, proj_hidden_dim=8, proj_out_dim=8,
            B=4, K=2, steps=3, eval_every=3,
            output_dir=str(tmp_path / "run"),
        )
        result = run_experiment(cfg)
        assert result.params.config.input_dim == 4 * 4 * 3
        assert result.final_probe_top1 is not None


class TestAblationGrid:
    def test_grid_rows_and_csv(self, tmp_path):
        cfg = tiny_config(tmp_path / "grid", steps=3, eval_every=3)
        cells = run_ablation_grid(cfg, B_values=(2, 3), K_values=(2, 4))
        assert [(c.B, c.K) for c in cells] == [(2, 2), (2, 4), (3, 2), (3, 4)]
        assert all(c.error == "" for c in cells)

        with open(os.path.join(cfg.output_dir, GRID_FILE), newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["B", "K", "views_per_batch", "probe_top1", "final_loss", "error"]
        assert len(rows) == 5
        assert rows[1][:3] == ["2", "2", "4"]
        # cell artifacts live in their own subdirectories
        assert os.path.exists(os.path.join(cfg.output_dir, "B2_K2", METRICS_FILE))

    def test_duplicate_pairs_are_collapsed(self, tmp_path):
        cfg = tiny_config(tmp_path / "grid", steps=3, eval_every=3)
        cells = run_ablation_grid(cfg, B_values=(2, 2), K_values=(2,))
        assert len(cells) == 1

    def test_failing_cell_is_isolated(self, tmp_path):
        # 4 classes x 12 each = 48 samples, 38 in the train split: B=64
        # cannot be sampled without replacement and must fail; B=2 must not.
        cfg = tiny_config(tmp_path / "grid", steps=3, eval_every=3)
        cells = run_ablation_grid(cfg, B_values=(2, 64), K_values=(2,))
        by_b = {c.B: c for c in cells}
        assert by_b[2].error == "" and by_b[2].probe_top1 is not None
        assert by_b[64].error != "" and by_b[64].probe_top1 is None

        with open(os.path.join(cfg.output_dir, GRID_FILE), newline="") as fh:
            rows = list(csv.reader(fh))
        bad = [r for r in rows[1:] if r[0] == "64"][0]
        assert bad[5] != ""


class TestCompareLosses:
    def test_two_arms_and_summary(self, tmp_path):
        cfg = tiny_config(tmp_path / "cmp", steps=4, eval_every=2)
        result = compare_losses(cfg)
        assert result.s2r2.config.loss == "s2r2"
        assert result.infonce.config.loss == "infonce"
        assert result.probe_gap == (result.s2r2.final_probe_top1
                                    - result.infonce.final_probe_top1)

        with open(os.path.join(cfg.output_dir, COMPARISON_FILE)) as fh:
            summary = json.load(fh)
        assert summary["probe_gap"] == result.probe_gap
        assert len(summary["s2r2_eval_points"]) == 2

        for arm in ("s2r2", "infonce"):
            assert os.path.exists(os.path.join(cfg.output_dir, arm, METRICS_FILE))

    def test_arms_see_identical_batches(self, tmp_path):
        # mean_batch_ap is an exact-AP diagnostic computed the same way in
        # both arms; at step 1 (before any update difference can appear,
        # since both arms start from the same init and see the same batch)
        # the value must coincide.
        cfg = tiny_config(tmp_path / "cmp", steps=2, eval_every=2)
        result = compare_losses(cfg)
        assert (result.s2r2.records[0].mean_batch_ap
                == result.infonce.records[0].mean_batch_ap)
