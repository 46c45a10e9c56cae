"""The image path end to end: binary dataset file, crops and color
jitter, training, and evaluation.

Builds a tiny colored-square image set (the class decides the square's
hue), round-trips it through the binary dataset format, trains on
augmented crops, and probes the result.  Swap in your own file with
`save_binary_images` to run the same pipeline on real data.
"""

import os
import tempfile

import numpy as np

from s2r2 import (
    AugmentationPolicy,
    EncoderConfig,
    ExperimentConfig,
    augment_image,
    load_binary_images,
    parse_config,
    render_config,
    run_experiment,
    save_binary_images,
)

rng = np.random.default_rng(0)
out_dir = tempfile.mkdtemp(prefix="s2r2_demo_")

# 4 classes of 12x12 images: a bright class-colored square on noise
HUES = np.array([[220, 60, 60], [60, 220, 60], [60, 60, 220], [220, 220, 60]],
                dtype=np.uint8)
n_per_class = 40
images, labels = [], []
for cls in range(4):
    for _ in range(n_per_class):
        img = rng.integers(0, 80, size=(12, 12, 3), dtype=np.uint8)
        r, c = rng.integers(0, 7, size=2)
        img[r:r + 6, c:c + 6] = HUES[cls]
        images.append(img)
        labels.append(cls)

path = os.path.join(out_dir, "squares.bin")
save_binary_images(path, np.stack(images), np.array(labels), num_classes=4)
dataset = load_binary_images(path)
print(f"wrote and reloaded {path}: {dataset.samples.shape} "
      f"({dataset.num_classes} classes)")

policy = AugmentationPolicy(crop_area_min=0.4, crop_area_max=1.0, output_height=8,
                            output_width=8, flip_prob=0.5, color_jitter_strength=0.3,
                            grayscale_prob=0.1)
view = augment_image(dataset.samples[0], policy, np.random.default_rng(1))
print(f"one augmented view: shape {view.shape}, range "
      f"[{view.min():.2f}, {view.max():.2f}]\n")

config = ExperimentConfig(
    dataset_kind="images",
    image_path=path,
    augmentation=policy,
    encoder=EncoderConfig(hidden_dims=(64,), rep_dim=32, proj_hidden_dim=32, proj_out_dim=32),
    B=8,
    K=4,
    steps=80,
    eval_every=40,
    seed=0,
    output_dir=os.path.join(out_dir, "run"),
)

# configs serialize to a flat text format and parse back identically
assert parse_config(render_config(config)) == config

result = run_experiment(config)
for rec in result.records:
    if rec.probe_top1 is not None:
        print(f"step {rec.step:>3}: loss {rec.train_loss:.4f}  "
              f"probe top-1 {rec.probe_top1:.4f}  "
              f"retrieval mAP {rec.retrieval_map:.4f}")
print(f"\nchance is 0.25; artifacts in {result.config.output_dir}")
