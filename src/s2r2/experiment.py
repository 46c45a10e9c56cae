"""Experiment orchestration: training loop, ablation grid, loss comparison.

One run = sample batch, encode, cosine similarities, ranking (or
contrastive) loss, backprop, Adam step, repeated for a fixed step
budget, with periodic evaluation on a held-out split by `evaluate`, the
one path that `s2r2 eval` also takes: features from
`encoder.extract_features`, the linear probe of `probe`, and
`ranking.retrieval_map`.  Artifacts land in the run's output directory:
``config.echo`` (normalized config), ``metrics.jsonl`` (one record per
step, flushed at every evaluation step), ``checkpoint.bin`` (final
weights).  On the ranking arm, each record's ``mean_batch_ap`` is the
exact AP that the loss pass computes alongside the smoothed AP; the
InfoNCE arm takes it from `ranking.mean_exact_ap`, which runs the same
exact-AP kernel.

All randomness derives from the single config seed through named
streams (data, augmentation, init, probe), so e.g. the two arms of a
loss comparison consume identical batches, and re-running a config
reproduces it bit for bit in deterministic mode (where ``wall_time_s``
is pinned to 0.0, the one field a clock would perturb).
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .atomic import atomic_write
from .config import ConfigError, ExperimentConfig, render_config
from .contrastive import info_nce_loss
from .data import LabeledDataset, generate_synthetic, load_binary_images, split
from .encoder import (
    DivergenceError,
    EncoderConfig,
    EncoderParams,
    adam_step,
    backward,
    extract_features,
    forward,
    init_params,
    save_checkpoint,
)
from .probe import ProbeConfig, train_linear_probe
from .ranking import batch_smooth_ap_loss, mean_exact_ap, retrieval_map
from .similarity import DegenerateInputError, backprop_similarity, cosine_similarity_matrix
from .views import eval_view_dataset, sample_batch

__all__ = [
    "STREAMS",
    "MetricsRecord",
    "RunResult",
    "GridCell",
    "ComparisonResult",
    "stream_seed",
    "batch_seed_sequence",
    "build_dataset",
    "eval_inputs",
    "evaluate",
    "run_experiment",
    "run_ablation_grid",
    "compare_losses",
    "GRID_B_VALUES",
    "GRID_K_VALUES",
]

STREAMS = {"data": 0, "augmentation": 1, "init": 2, "probe": 3}

GRID_B_VALUES = (4, 8, 16, 32)
GRID_K_VALUES = (2, 4, 8)

METRICS_FILE = "metrics.jsonl"
CHECKPOINT_FILE = "checkpoint.bin"
CONFIG_ECHO_FILE = "config.echo"
GRID_FILE = "grid.csv"
COMPARISON_FILE = "comparison.json"


def stream_seed(root_seed: int, stream: str, index: int = 0) -> int:
    """Derived integer seed for a named randomness stream."""
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=(STREAMS[stream], index))
    return int(ss.generate_state(1, np.uint64)[0])


def batch_seed_sequence(root_seed: int, step: int) -> np.random.SeedSequence:
    """Counter-based seed for the batch drawn at a given step (1-based)."""
    return np.random.SeedSequence(entropy=root_seed, spawn_key=(STREAMS["augmentation"], step))


@dataclass
class MetricsRecord:
    """One metrics line; probe fields are filled on evaluation steps only."""

    step: int
    train_loss: float
    mean_batch_ap: float
    probe_top1: float | None = None
    retrieval_map: float | None = None
    wall_time_s: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass
class RunResult:
    config: ExperimentConfig
    records: list[MetricsRecord]
    params: EncoderParams
    output_dir: str

    @property
    def final_probe_top1(self) -> float:
        for rec in reversed(self.records):
            if rec.probe_top1 is not None:
                return rec.probe_top1
        raise ValueError("run produced no evaluation records")

    @property
    def final_loss(self) -> float:
        return self.records[-1].train_loss


@dataclass
class GridCell:
    B: int
    K: int
    probe_top1: float | None
    final_loss: float | None
    error: str = ""


@dataclass
class ComparisonResult:
    s2r2: RunResult
    infonce: RunResult

    @property
    def probe_gap(self) -> float:
        """s2r2 minus infonce final probe accuracy; positive favors ranking."""
        return self.s2r2.final_probe_top1 - self.infonce.final_probe_top1


def build_dataset(config: ExperimentConfig) -> LabeledDataset:
    """Materialize the configured dataset; synthetic seeds derive from the
    run seed's data stream so the config seed alone fixes the data."""
    if config.dataset_kind == "synthetic":
        spec = replace(config.synthetic, seed=stream_seed(config.seed, "data", 0))
        return generate_synthetic(spec)
    return load_binary_images(config.image_path)


def eval_inputs(
    config: ExperimentConfig,
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset, ProbeConfig]:
    """``(train_split, eval_train, eval_test, probe_config)`` of a run.

    The raw train split feeds training batches; evaluation probes the
    eval views of both splits with the probe-stream seed.  ``s2r2 eval``
    shares this, so a checkpoint is scored exactly as its run scored it.
    Raises `ConfigError` when the splits cannot be scored: the probe needs
    two train labels, and retrieval two test items of each label.
    """
    train_ds, test_ds = split(build_dataset(config), config.train_fraction,
                              stream_seed(config.seed, "data", 1))
    present = np.count_nonzero(np.bincount(train_ds.labels))
    if present < 2:
        raise ConfigError(f"the train split holds {present} label(s); the probe needs >= 2")
    counts = np.bincount(test_ds.labels)
    fewest = counts[counts > 0].min()
    if fewest < 2:
        raise ConfigError(f"a test-split label has {fewest} item(s); retrieval needs >= 2 "
                          f"(lower train_fraction or add samples)")
    # encoder width follows the augmented views, which may be resized
    # relative to the raw samples; evaluation feeds matching frames
    return (
        train_ds,
        eval_view_dataset(train_ds, config.augmentation),
        eval_view_dataset(test_ds, config.augmentation),
        replace(config.probe, seed=stream_seed(config.seed, "probe")),
    )


def evaluate(extract, train_ds, test_ds, probe_cfg) -> tuple[float, float]:
    """``(probe top-1, retrieval mAP)`` of the features ``extract(dataset)`` gives.

    `run_experiment` and ``s2r2 eval`` both score through this, with
    ``extract`` binding `extract_features` to the encoder's params and
    the datasets and probe config from `eval_inputs`.  The train features
    exist only as the probe's argument, so they are freed before
    retrieval, which reads the test features alone.
    """
    probe = train_linear_probe(
        extract(train_ds), train_ds.labels, test_feats := extract(test_ds), test_ds.labels,
        config=probe_cfg, num_classes=train_ds.num_classes,
    )
    return probe.top1_accuracy, retrieval_map(test_feats, test_ds.labels)


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Train per the config and write metrics/checkpoint/config artifacts.

    Raises `DivergenceError` on non-finite numbers in training or the
    probe, or on a projection that collapsed to zero, and
    `ConfigError`/`ValueError` on invalid inputs.  Inputs that
    the config alone rules out (see `eval_inputs`, and a train split
    smaller than B) raise `ConfigError` before any artifact is written;
    partial artifacts of a run that fails later are left in place for
    diagnosis.
    """
    train_ds, eval_train, eval_test, probe_cfg = eval_inputs(config)
    if len(train_ds) < config.B:
        raise ConfigError(f"the train split holds {len(train_ds)} samples; "
                          f"a batch draws B = {config.B} distinct sources")
    os.makedirs(config.output_dir, exist_ok=True)
    with atomic_write(os.path.join(config.output_dir, CONFIG_ECHO_FILE), encoding="utf-8") as fh:
        fh.write(render_config(config))

    enc_cfg = EncoderConfig(
        input_dim=eval_train.feature_dim,
        hidden_dims=config.hidden_dims,
        rep_dim=config.rep_dim,
        proj_hidden_dim=config.proj_hidden_dim,
        proj_out_dim=config.proj_out_dim,
        seed=stream_seed(config.seed, "init"),
    )
    params = init_params(enc_cfg)

    records: list[MetricsRecord] = []
    start = time.monotonic()
    metrics_path = os.path.join(config.output_dir, METRICS_FILE)
    with open(metrics_path, "w", encoding="utf-8") as metrics_fh:
        for step in range(1, config.steps + 1):
            views = sample_batch(
                train_ds, config.B, config.K, config.augmentation,
                batch_seed_sequence(config.seed, step),
            )
            flat = views.reshape(views.shape[0], -1)
            _, projections, cache = forward(params, flat)
            try:
                sim = cosine_similarity_matrix(projections)
            except DegenerateInputError as exc:  # a ReLU layer left a projection at zero
                raise DivergenceError(f"the encoder collapsed at step {step}: "
                                      f"projection {exc}") from None

            if config.loss == "s2r2":
                result = batch_smooth_ap_loss(sim, config.K, config.smoothing)
                batch_ap = float(np.mean(result.exact_ap))
            else:
                result = info_nce_loss(sim, config.K, config.contrastive)
                batch_ap = mean_exact_ap(sim, config.K)
            if not np.isfinite(result.loss):
                raise DivergenceError(f"non-finite loss at step {step}")

            backward(params, cache, backprop_similarity(projections, result.grad_wrt_similarities))
            adam_step(params, config.optimizer)

            rec = MetricsRecord(
                step=step,
                train_loss=float(result.loss),
                mean_batch_ap=batch_ap,
            )
            if step % config.eval_every == 0 or step == config.steps:
                rec.probe_top1, rec.retrieval_map = evaluate(
                    partial(extract_features, params), eval_train, eval_test, probe_cfg)
            rec.wall_time_s = 0.0 if config.deterministic else time.monotonic() - start
            records.append(rec)
            metrics_fh.write(rec.to_json() + "\n")
            if rec.probe_top1 is not None:
                metrics_fh.flush()  # a run killed later keeps every record so far

    save_checkpoint(params, os.path.join(config.output_dir, CHECKPOINT_FILE))
    return RunResult(config=config, records=records, params=params, output_dir=config.output_dir)


def run_ablation_grid(
    base_config: ExperimentConfig,
    B_values=GRID_B_VALUES,
    K_values=GRID_K_VALUES,
) -> list[GridCell]:
    """One training run per distinct (B, K) pair at a fixed step budget.

    A failing cell is recorded in its row (error column) and the grid
    moves on.  Writes ``grid.csv`` under the base output directory; each
    cell keeps its own artifact subdirectory.
    """
    pairs = list(dict.fromkeys((int(b), int(k)) for b in B_values for k in K_values))
    os.makedirs(base_config.output_dir, exist_ok=True)
    cells: list[GridCell] = []
    for b, k in pairs:
        try:
            run = run_experiment(replace(
                base_config, B=b, K=k,
                output_dir=os.path.join(base_config.output_dir, f"B{b}_K{k}"),
            ))
            cells.append(GridCell(B=b, K=k, probe_top1=run.final_probe_top1,
                                  final_loss=run.final_loss))
        except Exception as exc:  # fault isolation: one bad cell must not kill the grid
            cells.append(GridCell(B=b, K=k, probe_top1=None, final_loss=None,
                                  error=f"{type(exc).__name__}: {exc}"))

    grid_path = os.path.join(base_config.output_dir, GRID_FILE)
    with atomic_write(grid_path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["B", "K", "views_per_batch", "probe_top1", "final_loss", "error"])
        for c in cells:
            writer.writerow([
                c.B, c.K, c.B * c.K,
                "" if c.probe_top1 is None else repr(c.probe_top1),
                "" if c.final_loss is None else repr(c.final_loss),
                c.error,
            ])
    return cells


def compare_losses(config: ExperimentConfig) -> ComparisonResult:
    """Train a ranking arm and a contrastive arm on identical batches.

    Both arms share the config seed, so data, augmentations, and init
    coincide; only the objective differs.  Emits each arm's artifacts in
    a subdirectory plus a ``comparison.json`` delta summary.
    """
    arm_cfgs = {loss: replace(config, loss=loss, output_dir=os.path.join(config.output_dir, loss))
                for loss in ("s2r2", "infonce")}  # both checked before either trains
    os.makedirs(config.output_dir, exist_ok=True)
    arms = {loss: run_experiment(arm_cfg) for loss, arm_cfg in arm_cfgs.items()}
    result = ComparisonResult(s2r2=arms["s2r2"], infonce=arms["infonce"])

    def eval_points(run: RunResult):
        return [
            {"step": r.step, "probe_top1": r.probe_top1, "retrieval_map": r.retrieval_map}
            for r in run.records
            if r.probe_top1 is not None
        ]

    summary = {
        "s2r2_final_probe_top1": result.s2r2.final_probe_top1,
        "infonce_final_probe_top1": result.infonce.final_probe_top1,
        "probe_gap": result.probe_gap,
        "s2r2_eval_points": eval_points(result.s2r2),
        "infonce_eval_points": eval_points(result.infonce),
    }
    with atomic_write(os.path.join(config.output_dir, COMPARISON_FILE), encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return result
