"""Ranking loss vs InfoNCE on identical batches.

Both arms share the seed, so they see the same data splits, the same
augmented views in the same order, and the same initial weights; only
the objective differs.  Both treat the same K-1 sibling views of a
query as its positives: the ranking loss scores how the whole list of
views ranks, all positives above all negatives at once, while InfoNCE
averages a softmax cross-entropy over the positives one by one.  On the
two-block benchmark (``mix_count = 2``: class signal in one coordinate
block, a distractor source in the other) that difference is visible in
the final linear probe.
"""

import tempfile

from s2r2 import (
    EncoderConfig,
    ExperimentConfig,
    OptimizerConfig,
    SyntheticSpec,
    compare_losses,
)

config = ExperimentConfig(
    synthetic=SyntheticSpec(num_classes=10, dim=64, samples_per_class=200,
                            cluster_spread=0.3, mix_count=2),
    encoder=EncoderConfig(hidden_dims=(64,), rep_dim=32, proj_hidden_dim=32, proj_out_dim=32),
    optimizer=OptimizerConfig(learning_rate=3e-3),
    B=8,
    K=8,
    steps=150,
    eval_every=50,
    seed=0,
    output_dir=tempfile.mkdtemp(prefix="s2r2_demo_"),
)

runs = compare_losses(config)
ranking, contrastive = runs["s2r2"], runs["infonce"]

print("step   ranking-probe   contrastive-probe")
infonce_by_step = {r.step: r for r in contrastive.records}
for rec in ranking.records:
    if rec.probe_top1 is None:
        continue
    other = infonce_by_step[rec.step]
    print(f"{rec.step:>4}      {rec.probe_top1:.4f}          {other.probe_top1:.4f}")

gap = ranking.final_probe_top1 - contrastive.final_probe_top1
print(f"\nfinal: ranking {ranking.final_probe_top1:.4f} vs "
      f"contrastive {contrastive.final_probe_top1:.4f} (gap {gap:+.4f})")
print(f"full metric streams in {config.output_dir}")
