"""How batch shape (sources x views) affects the learned representation.

A batch of B*K views can spend its budget on many sources with few
views each, or few sources with many views.  The grid below retrains
the same model at a fixed step budget for each shape and reports the
final linear-probe accuracy per cell.  The same sweep is available as
`s2r2 ablate --B 4,8,16 --K 2,4,8`.
"""

import tempfile

from s2r2 import (
    EncoderConfig,
    ExperimentConfig,
    OptimizerConfig,
    SyntheticSpec,
    run_ablation_grid,
)

B_VALUES = (4, 8, 16)
K_VALUES = (2, 4, 8)

config = ExperimentConfig(
    synthetic=SyntheticSpec(num_classes=10, dim=64, samples_per_class=100,
                            cluster_spread=0.3, mix_count=2),
    encoder=EncoderConfig(hidden_dims=(64,), rep_dim=32, proj_hidden_dim=32, proj_out_dim=32),
    optimizer=OptimizerConfig(learning_rate=3e-3),
    B=4,
    K=2,
    steps=60,
    eval_every=60,
    seed=0,
    output_dir=tempfile.mkdtemp(prefix="s2r2_demo_"),
)

cells = run_ablation_grid(config, B_VALUES, K_VALUES)
acc = {cell: run.final_probe_top1 for cell, run in cells.items()}

print(f"probe top-1 after {config.steps} steps (rows: sources B, cols: views K)\n")
print("        " + "".join(f"K={k:<7}" for k in K_VALUES))
for b in B_VALUES:
    row = "".join(f"{acc[(b, k)]:.4f}   " for k in K_VALUES)
    print(f"B={b:<3}   {row}")

best = max(acc, key=acc.get)
worst = min(acc, key=acc.get)
print(f"\nbest  (B={best[0]}, K={best[1]}): {acc[best]:.4f}")
print(f"worst (B={worst[0]}, K={worst[1]}): {acc[worst]:.4f}")
print(f"grid CSV written to {config.output_dir}/grid.csv")
