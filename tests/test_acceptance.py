"""Acceptance suite: eight numbered criteria, one test and one report line each.

Every expected value is either hand-derivable or checked against an
independent oracle (pure-Python rank enumeration, central finite
differences, Monte-Carlo, or the raw-feature probe).  A summary line
per criterion is printed at the end of the pytest run.

Gradient checks use the vector-level relative error
``max|a - n| / max(||a||_inf, ||n||_inf)``: per-entry ratios are
meaningless for entries below the central-difference resolution
(~1e-10 for unit-scale losses at eps=1e-6), so instances are drawn so
the gradient itself is resolvable and the error is normalized by its
magnitude.
"""

import csv
import json
import os
import time

import numpy as np

from s2r2 import (
    EncoderConfig,
    ExperimentConfig,
    OptimizerConfig,
    SyntheticSpec,
    compare_losses,
    exact_ap,
    split,
    train_linear_probe,
)
from s2r2.cli import EXIT_OK, main
from s2r2.experiment import build_dataset, run_experiment
from s2r2.selftest import (
    ap_instances,
    batch_hand_cases,
    encoder_backward_error,
    info_nce_error,
    similarity_backprop_error,
    smooth_ap_grad_error,
    smooth_vs_exact_ap_gap,
)

from oracles import brute_ap

_REPORT = []


def _record(num, ok, detail):
    _REPORT.append(f"criterion {num}: {'PASS' if ok else 'FAIL'} -- {detail}")


def test_criterion_1_oracle_equivalence():
    # 1000 score vectors, m in [4, 64], pairwise margins >= 1e-2: the
    # tau=1e-6 smoothing must agree with exact AP to 1e-4, and exact AP
    # must agree with a brute-force rank-enumeration oracle bit for bit
    # on the same instances.
    started = time.monotonic()
    worst_gap = smooth_vs_exact_ap_gap(np.random.default_rng(11), 1000)
    mismatches = sum(exact_ap(scores, mask) != brute_ap(scores, np.flatnonzero(mask))
                     for scores, mask in ap_instances(np.random.default_rng(11), 1000))
    elapsed = time.monotonic() - started

    ok = mismatches == 0 and worst_gap <= 1e-4 and elapsed < 10.0
    _record(1, ok, f"1000 instances, max |smooth - exact| = {worst_gap:.3e}, "
                   f"{mismatches} oracle mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert worst_gap <= 1e-4
    assert elapsed < 10.0


def test_criterion_2_gradient_correctness():
    # Four analytic-gradient surfaces vs central differences (float64,
    # eps = 1e-6), 100 instances each, relative error <= 1e-4.
    started = time.monotonic()
    worst = {
        "smooth_ap_grad": smooth_ap_grad_error(np.random.default_rng(2026), 100),
        "backprop_similarity": similarity_backprop_error(np.random.default_rng(2027), 100),
        "encoder_backward": encoder_backward_error(np.random.default_rng(2028), 100),
        "info_nce": info_nce_error(np.random.default_rng(2029), 100),
    }
    elapsed = time.monotonic() - started
    peak = max(worst.values())
    ok = peak <= 1e-4 and elapsed < 60.0
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    _record(2, ok, f"worst rel err per family: {detail}; {elapsed:.1f}s")
    for family, err in worst.items():
        assert err <= 1e-4, family
    assert elapsed < 60.0


def test_criterion_3_hand_computed_batch_cases():
    # a collapsed batch (all four views identical) scores loss 1/2 by tie
    # splitting; a separated one (groups on orthogonal directions) scores 0
    gap_half, separated = batch_hand_cases()
    ok = gap_half <= 1e-9 and separated <= 1e-4
    _record(3, ok, f"collapsed batch loss off by {gap_half:.2e} from 1/2, "
                   f"separated batch loss {separated:.2e}")
    assert gap_half <= 1e-9
    assert separated <= 1e-4


def test_criterion_4_desk_scale_training(tmp_path):
    # defaults are exactly the stated benchmark: 10 classes, dim 64,
    # spread 0.3, 500 samples/class, MLP encoder, B=16, K=8, tau=0.01.
    cfg = ExperimentConfig(B=16, K=8, steps=200, eval_every=200, seed=0,
                           output_dir=str(tmp_path / "run"))
    assert cfg.synthetic == SyntheticSpec(num_classes=10, dim=64,
                                          samples_per_class=500,
                                          cluster_spread=0.3)
    assert cfg.smoothing.tau == 0.01

    started = time.monotonic()
    # pre-check: the dataset must be linearly separable from raw features,
    # so the criterion measures representation learning, not data triviality
    dataset = build_dataset(cfg)
    train_ds, test_ds = split(dataset, cfg.train_fraction, seed=0)
    raw = train_linear_probe(train_ds.flat_samples(), train_ds.labels,
                             test_ds.flat_samples(), test_ds.labels, seed=0)
    assert raw.top1_accuracy >= 0.99, "raw-feature oracle: dataset not separable"

    run = run_experiment(cfg)
    elapsed = time.monotonic() - started
    top1 = run.final_probe_top1

    ok = top1 >= 0.95 and top1 >= 0.5 and elapsed < 120.0
    _record(4, ok, f"probe top-1 {top1:.4f} (raw-feature oracle "
                   f"{raw.top1_accuracy:.4f}, chance 0.10), {elapsed:.1f}s")
    assert top1 >= 0.95
    assert top1 >= 5 * 0.10
    assert elapsed < 120.0


def test_criterion_5_directional_loss_comparison(tmp_path):
    # two-block benchmark (mix_count = 2), matched view budgets, 3 seeds:
    # the ranking arm's mean final probe accuracy must not trail the
    # contrastive arm.
    finals = []
    for seed in (0, 1, 2):
        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(num_classes=10, dim=64, samples_per_class=200,
                                    cluster_spread=0.3, mix_count=2),
            encoder=EncoderConfig(hidden_dims=(64,), rep_dim=32, proj_hidden_dim=32,
                                  proj_out_dim=32),
            optimizer=OptimizerConfig(learning_rate=3e-3),
            B=8, K=8, steps=150, eval_every=150, seed=seed,
            output_dir=str(tmp_path / f"seed{seed}"),
        )
        runs = compare_losses(cfg)
        finals.append((runs["s2r2"].final_probe_top1, runs["infonce"].final_probe_top1))

    mean_s2r2 = float(np.mean([f[0] for f in finals]))
    mean_infonce = float(np.mean([f[1] for f in finals]))
    gap = mean_s2r2 - mean_infonce

    ok = gap >= 0.0
    _record(5, ok, f"ranking {mean_s2r2:.4f} vs contrastive {mean_infonce:.4f} "
                   f"over 3 seeds, gap {gap:+.4f}")
    assert gap >= 0.0


def test_criterion_6_ablation_grid_artifact(tmp_path):
    # full 4x3 grid through the ablate verb at a fixed 60-step budget on
    # the mixed benchmark; the grid must be well formed and batch shape
    # must visibly matter (best cell beats worst by a reportable margin).
    cfg = ExperimentConfig(
        synthetic=SyntheticSpec(num_classes=10, dim=64, samples_per_class=100,
                                cluster_spread=0.3, mix_count=2),
        encoder=EncoderConfig(hidden_dims=(64,), rep_dim=32, proj_hidden_dim=32, proj_out_dim=32),
        optimizer=OptimizerConfig(learning_rate=3e-3),
        B=4, K=2, steps=60, eval_every=60, seed=0,
        output_dir=str(tmp_path / "grid"),
    )
    from s2r2 import render_config
    cfg_path = tmp_path / "grid.cfg"
    cfg_path.write_text(render_config(cfg))

    code = main(["ablate", "--config", str(cfg_path)])
    assert code == EXIT_OK

    with open(tmp_path / "grid" / "grid.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["B", "K", "views_per_batch", "probe_top1", "final_loss", "error"]
    body = rows[1:]
    assert len(body) == 12
    assert {(r[0], r[1]) for r in body} == {(str(b), str(k))
                                            for b in (4, 8, 16, 32)
                                            for k in (2, 4, 8)}
    assert all(r[5] == "" for r in body), "grid contains failed cells"
    accs = [float(r[3]) for r in body]
    margin = max(accs) - min(accs)

    ok = margin >= 0.01
    _record(6, ok, f"12-row grid, best {max(accs):.4f} vs worst {min(accs):.4f}, "
                   f"margin {margin:.4f}")
    assert margin >= 0.01


def test_criterion_7_byte_identical_determinism(tmp_path):
    from s2r2 import render_config
    cfg = ExperimentConfig(
        synthetic=SyntheticSpec(num_classes=4, dim=8, samples_per_class=12),
        encoder=EncoderConfig(hidden_dims=(16,), rep_dim=8, proj_hidden_dim=8, proj_out_dim=8),
        B=4, K=2, steps=5, eval_every=5, seed=3,
    )
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(render_config(cfg))

    def artifact_bytes(root):
        out = {}
        for dirpath, _, names in os.walk(root):
            for name in names:
                if name in ("metrics.jsonl", "checkpoint.bin"):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    with open(os.path.join(dirpath, name), "rb") as fh:
                        out[rel] = fh.read()
        return out

    checked = []
    for verb in ("train", "compare"):
        a, b = tmp_path / f"{verb}_a", tmp_path / f"{verb}_b"
        for out in (a, b):
            assert main([verb, "--config", str(cfg_path), "--out", str(out),
                         "--deterministic"]) == EXIT_OK
        bytes_a, bytes_b = artifact_bytes(a), artifact_bytes(b)
        assert bytes_a.keys() == bytes_b.keys() and bytes_a
        assert bytes_a == bytes_b, f"{verb} artifacts differ between reruns"
        checked.append(f"{verb} ({len(bytes_a)} files)")

    _record(7, True, "byte-identical metrics.jsonl and checkpoint.bin: "
                     + ", ".join(checked))


def test_criterion_8_property_suites_present():
    # the per-module property tests run in this same pytest session; this
    # criterion pins the named invariants to concrete test functions so a
    # rename or deletion cannot silently drop coverage.
    import test_contrastive
    import test_data
    import test_experiment
    import test_ranking
    import test_similarity
    import test_views

    inventory = [
        (test_ranking, "TestExactAp", "test_permutation_invariance"),
        (test_ranking, "TestExactAp", "test_shift_invariance"),
        (test_ranking, "TestSmoothAp", "test_monotone_convergence_to_exact_ap"),
        (test_contrastive, "TestGradient", "test_rows_sum_to_zero"),
        (test_similarity, "TestNormalize", "test_rows_have_unit_norm"),
        (test_data, "TestSplit", "test_partition_exhaustive_and_disjoint"),
        (test_views, "TestSampleBatch", "test_group_structure"),
        (test_experiment, "TestRunExperiment", "test_artifacts_and_record_schema"),
        (test_experiment, "TestRunExperiment", "test_same_seed_reruns_are_byte_identical"),
    ]
    for module, cls, name in inventory:
        assert callable(getattr(getattr(module, cls), name)), f"{cls}.{name}"

    _record(8, True, f"{len(inventory)} named property tests wired into the suite")
