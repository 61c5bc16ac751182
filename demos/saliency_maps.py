"""
Where inside a training image does its influence live?
======================================================

A training-example score like grad-cos says THAT an image mattered; its
gradient with respect to the training pixels says WHERE. The gradient runs
through the model's backward pass (a second differentiation), and raw maps
are noisy, so SmoothGrad averages maps over gaussian-perturbed copies of
the training image. Artifacts land in demo_out/ as a viewable PGM plus a
lossless CSV of the raw values.
"""

import numpy as np

from tfa import (
    Model,
    SyntheticShapesSpec,
    TrainConfig,
    channel_aggregate,
    generate_synthetic,
    rank_training_set,
    smoothgrad_saliency,
    tfa_saliency,
    tiny_cnn,
    train,
    write_grid_artifacts,
)

spec = SyntheticShapesSpec(
    size=12, noise=0.05, train_per_class=25, holdout_per_class=0, test_per_class=8, seed=3
)
train_ds, _, test_ds = generate_synthetic(spec)
arch = tiny_cnn((1, 12, 12), 3)
params, _ = train(train_ds, arch, TrainConfig(lr=0.2, epochs=6, batch_size=16, seed=3))
model = Model(arch)

# map the most helpful training image for test image 0
z_test = test_ds.example(0)
best = rank_training_set(model, params, train_ds, z_test, "grad-cos").helpful(1)[0]
z_train = train_ds.example(best.train_index)
print(f"most helpful for test 0: train {best.train_index} (grad-cos {best.score:+.4f})")

raw = tfa_saliency(model, params, z_train, z_test)
smooth = smoothgrad_saliency(model, params, z_train, z_test, sigma=0.05, samples=25, seed=0)

# noise shrinks under averaging: compare total variation of the two maps
def roughness(values):
    grid = channel_aggregate(values)
    return float(np.abs(np.diff(grid, axis=0)).sum() + np.abs(np.diff(grid, axis=1)).sum())

print(f"raw map roughness      {roughness(raw.values):.4f}")
print(f"smoothed map roughness {roughness(smooth.values):.4f}")

write_grid_artifacts("demo_out/train_image", z_train.x[0])
write_grid_artifacts("demo_out/saliency_raw", channel_aggregate(raw))
write_grid_artifacts("demo_out/saliency_smooth", channel_aggregate(smooth))
print("wrote demo_out/train_image.pgm, saliency_raw.pgm, saliency_smooth.pgm (+ .csv each)")
