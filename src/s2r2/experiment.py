"""Experiment orchestration: training loop, ablation grid, loss comparison.

One training step, `_train_step`, = sample batch, encode, cosine
similarities, ranking (or contrastive) loss, backprop, Adam step, and on
evaluation steps a score of the held-out split.  The batch comes from
`batch_seed_sequence(seed, step)`, so a step depends only on the config,
the step number and the params with their Adam state: a loop over steps
1..n from fresh `init_params` reproduces a run.  `run_experiment` is the
set-up plus that loop, which records each step.  Evaluation is `evaluate`,
the one path that `s2r2 eval` also takes: the linear probe of `probe` and
`ranking.retrieval_map`, run on the features that each caller makes of
the two eval splits with `encoder.extract_features`.  A run keeps its
splits for every evaluation; ``s2r2 eval`` drops each split's samples as
soon as its features exist.  Artifacts land in the run's output directory:
``config.echo`` (normalized config), ``metrics.jsonl`` (one record per
step, flushed at every evaluation step), ``checkpoint.bin`` (final
weights).  On the ranking arm, each record's ``mean_batch_ap`` is the
exact AP that the loss pass computes alongside the smoothed AP; the
InfoNCE arm takes it from `ranking.mean_exact_ap`, which runs the same
exact-AP kernel.

The two sweeps, `run_ablation_grid` and `compare_losses`, run their
cells through one loop, `_run_cells`, which rewrites the sweep's summary
(``grid.csv``, ``comparison.json``) atomically after every cell.

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

import numpy as np

from .atomic import atomic_write
from .config import ConfigError, ExperimentConfig, render_config
from .contrastive import info_nce_loss
from .data import LabeledDataset, generate_synthetic, load_binary_images, split
from .encoder import (
    DivergenceError,
    EncoderParams,
    adam_step,
    backward,
    extract_features,
    forward,
    init_params,
    save_checkpoint,
)
from .probe import train_linear_probe
from .ranking import batch_smooth_ap_loss, mean_exact_ap, retrieval_map
from .similarity import DegenerateInputError, backprop_similarity, cosine_similarity_matrix
from .views import eval_view_dataset, sample_batch

__all__ = [
    "STREAMS",
    "MetricsRecord",
    "RunResult",
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

    @property
    def final_probe_top1(self) -> float:
        return self.records[-1].probe_top1  # the last step always evaluates

    @property
    def final_loss(self) -> float:
        return self.records[-1].train_loss


def build_dataset(config: ExperimentConfig) -> LabeledDataset:
    """Materialize the configured dataset: synthetic data is generated
    with the seed of the run seed's data stream, so the config seed alone
    fixes the data; an image bundle is read from ``image_path``."""
    if config.dataset_kind == "synthetic":
        return generate_synthetic(config.synthetic, stream_seed(config.seed, "data", 0))
    return load_binary_images(config.image_path)


def eval_inputs(
    config: ExperimentConfig,
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """``(train_split, eval_train, eval_test)`` of a run.

    The raw train split feeds training batches; evaluation scores the
    features of both splits' eval views (see `evaluate`).  ``s2r2 eval``
    shares this, so a checkpoint is scored exactly as its run scored it;
    it keeps the eval views only until their features exist.  Raises
    `ConfigError` when the dataset cannot be split (no samples, or a
    class with one) or the splits cannot be scored: the probe needs two
    train labels, and retrieval two test items of each label.
    """
    dataset = build_dataset(config)
    try:
        train_ds, test_ds = split(dataset, config.train_fraction,
                                  stream_seed(config.seed, "data", 1))
    except ValueError as exc:  # the synthetic specs all split, so this is an image bundle
        raise ConfigError(f"{config.image_path}: {exc}") from None
    del dataset  # each split holds its own copy; the whole set would only add to peak memory
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
    )


def evaluate(train: LabeledDataset, test: LabeledDataset,
             config: ExperimentConfig) -> tuple[float, float]:
    """``(probe top-1, retrieval mAP)`` of the eval splits' features.

    ``train`` and ``test`` hold, as `LabeledDataset` samples, the
    `extract_features` rows of the two eval datasets of `eval_inputs`,
    with their labels and class count.  `run_experiment` and ``s2r2 eval``
    both score through this; taking features rather than the datasets
    lets ``s2r2 eval`` free each split's samples before the probe.  The
    probe trains per ``config.probe`` with the seed of the run seed's
    probe stream.  Retrieval reads the test features alone; the caller
    still holds the train features while it runs.
    """
    probe = train_linear_probe(
        train.samples, train.labels, test.samples, test.labels,
        config=config.probe, num_classes=train.num_classes,
        seed=stream_seed(config.seed, "probe"),
    )
    return probe.top1_accuracy, retrieval_map(test.samples, test.labels)


def _train_step(config: ExperimentConfig, inputs, params: EncoderParams, step: int) -> MetricsRecord:
    """Train ``params`` in place on the batch of ``step`` (1-based); return its record.

    ``inputs`` is what `eval_inputs` returns.  Raises `DivergenceError` on a
    collapsed projection or a non-finite loss, gradient, weight or probe.
    """
    train_ds, eval_train, eval_test = inputs
    views = sample_batch(train_ds, config.B, config.K, config.augmentation,
                         batch_seed_sequence(config.seed, step))
    _, projections, cache = forward(params, views.reshape(views.shape[0], -1))
    try:
        sim = cosine_similarity_matrix(projections)
    except DegenerateInputError as exc:  # a ReLU layer left a projection at zero
        raise DivergenceError(f"the encoder collapsed: projection {exc}") from None
    if config.loss == "s2r2":
        result = batch_smooth_ap_loss(sim, config.K, config.smoothing)
        batch_ap = float(np.mean(result.exact_ap))
    else:
        result = info_nce_loss(sim, config.K, config.contrastive)
        batch_ap = mean_exact_ap(sim, config.K)
    if not np.isfinite(result.loss):
        raise DivergenceError("non-finite loss")
    backward(params, cache, backprop_similarity(projections, result.grad_wrt_similarities))
    adam_step(params, config.optimizer)
    rec = MetricsRecord(step=step, train_loss=float(result.loss), mean_batch_ap=batch_ap)
    if step % config.eval_every == 0 or step == config.steps:
        train, test = (LabeledDataset(extract_features(params, ds), ds.labels, ds.num_classes)
                       for ds in (eval_train, eval_test))
        rec.probe_top1, rec.retrieval_map = evaluate(train, test, config)
    return rec


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Train per the config and write metrics/checkpoint/config artifacts.

    Raises `DivergenceError`, its message prefixed with the step, on
    non-finite numbers in training or the probe, or on a projection that
    collapsed to zero, and `ConfigError`/`ValueError` on invalid inputs.
    Inputs that the config alone rules out (see `eval_inputs`, and a
    train split smaller than B) raise `ConfigError` before any artifact is
    written; partial artifacts of a run that fails later are left in
    place for diagnosis.
    """
    train_ds, eval_train, _ = inputs = eval_inputs(config)
    if len(train_ds) < config.B:
        raise ConfigError(f"the train split holds {len(train_ds)} samples; "
                          f"a batch draws B = {config.B} distinct sources")
    os.makedirs(config.output_dir, exist_ok=True)
    with atomic_write(os.path.join(config.output_dir, CONFIG_ECHO_FILE), encoding="utf-8") as fh:
        fh.write(render_config(config))

    params = init_params(config.encoder, eval_train.feature_dim, stream_seed(config.seed, "init"))
    records: list[MetricsRecord] = []
    start = time.monotonic()
    with open(os.path.join(config.output_dir, METRICS_FILE), "w", encoding="utf-8") as metrics_fh:
        for step in range(1, config.steps + 1):
            try:
                rec = _train_step(config, inputs, params, step)
            except DivergenceError as exc:
                raise DivergenceError(f"step {step}: {exc}") from None
            rec.wall_time_s = 0.0 if config.deterministic else time.monotonic() - start
            records.append(rec)
            metrics_fh.write(rec.to_json() + "\n")
            if rec.probe_top1 is not None:
                metrics_fh.flush()  # a run killed later keeps every record so far

    save_checkpoint(params, os.path.join(config.output_dir, CHECKPOINT_FILE))
    return RunResult(config=config, records=records, params=params)


def _run_cells(cells: dict, out_dir: str, summary_file: str, write_summary, isolate: bool) -> dict:
    """Run each config of ``cells`` (name -> config) in order, and after every
    cell rewrite ``out_dir/summary_file`` with ``write_summary(fh, results)``
    through `atomic_write`.  With ``isolate``, a cell's `Exception` becomes
    its error text in place of a `RunResult` and the sweep goes on; without
    it, the error ends the sweep.  Returns cell name -> `RunResult` or text.
    """
    os.makedirs(out_dir, exist_ok=True)
    results: dict = {}
    for name, cell_cfg in cells.items():
        try:
            results[name] = run_experiment(cell_cfg)
        except Exception as exc:  # fault isolation: one bad cell must not kill the sweep
            if not isolate:
                raise
            results[name] = f"{type(exc).__name__}: {exc}"
        with atomic_write(os.path.join(out_dir, summary_file), encoding="utf-8", newline="") as fh:
            write_summary(fh, results)
    return results


def run_ablation_grid(
    base_config: ExperimentConfig,
    B_values=GRID_B_VALUES,
    K_values=GRID_K_VALUES,
) -> dict[tuple[int, int], RunResult | str]:
    """One training run per distinct (B, K) pair at a fixed step budget.

    Every cell's config is checked first: an empty grid, or a cell the
    config rules reject, raises `ConfigError` before any directory is
    made.  A cell that fails while it runs is recorded in its row (error
    column) and the grid moves on.  ``grid.csv`` under the base output
    directory is rewritten after every cell; each cell keeps its own
    artifact subdirectory.  Returns (B, K) -> `RunResult` or error text.
    """
    cell_cfgs = {}
    for b, k in dict.fromkeys((b, k) for b in B_values for k in K_values):
        try:
            cell_cfgs[b, k] = replace(base_config, B=b, K=k, output_dir=os.path.join(
                base_config.output_dir, f"B{b}_K{k}"))
        except ConfigError as exc:
            raise ConfigError(f"grid cell B={b}, K={k}: {exc}") from None
    if not cell_cfgs:
        raise ConfigError("a grid needs at least one B and one K value")

    def write_grid(fh, cells):
        writer = csv.writer(fh)
        writer.writerow(["B", "K", "views_per_batch", "probe_top1", "final_loss", "error"])
        for (b, k), c in cells.items():
            if isinstance(c, RunResult):
                writer.writerow([b, k, b * k, repr(c.final_probe_top1), repr(c.final_loss), ""])
            else:
                writer.writerow([b, k, b * k, "", "", c])

    return _run_cells(cell_cfgs, base_config.output_dir, GRID_FILE, write_grid, isolate=True)


def compare_losses(config: ExperimentConfig) -> dict[str, RunResult]:
    """Train a ranking arm and a contrastive arm on identical batches.

    Both arms share the config seed, so data, augmentations, and init
    coincide; only the objective differs.  Emits each arm's artifacts in
    a subdirectory plus a ``comparison.json`` delta summary, rewritten
    after each arm; an arm's error ends the comparison, leaving ``null``
    and no eval points where the summary needs the missing arm.  Returns
    ``"s2r2"`` and ``"infonce"`` -> `RunResult`.
    """
    arm_cfgs = {loss: replace(config, loss=loss, output_dir=os.path.join(config.output_dir, loss))
                for loss in ("s2r2", "infonce")}  # both checked before either trains

    def write_comparison(fh, arms):
        final = {loss: run.final_probe_top1 for loss, run in arms.items()}
        summary = {f"{loss}_final_probe_top1": final.get(loss) for loss in arm_cfgs}
        # s2r2 minus infonce; positive favors ranking
        summary["probe_gap"] = final["s2r2"] - final["infonce"] if len(final) == 2 else None
        for loss in arm_cfgs:
            summary[f"{loss}_eval_points"] = [
                {"step": r.step, "probe_top1": r.probe_top1, "retrieval_map": r.retrieval_map}
                for r in (arms[loss].records if loss in arms else []) if r.probe_top1 is not None
            ]
        json.dump(summary, fh, indent=2)
        fh.write("\n")

    return _run_cells(arm_cfgs, config.output_dir, COMPARISON_FILE, write_comparison, isolate=False)
