"""
Ranking training examples for one prediction
============================================

Train a small CNN on synthetic shapes, pick one test image, and ask which
training images helped or hurt that specific prediction. Four scorers are
compared: grad-cos (cosine of loss gradients), grad-effect (predicted loss
change from one training step), and the two Hessian-based scores
(influence function and RelatIF). Positive always means helpful.
"""

from tfa import (
    Model,
    SyntheticShapesSpec,
    TrainConfig,
    dense_hessian,
    generate_synthetic,
    rank_training_set,
    tiny_cnn,
    train,
)

spec = SyntheticShapesSpec(
    size=12, noise=0.05, train_per_class=25, holdout_per_class=0, test_per_class=8, seed=3
)
train_ds, _, test_ds = generate_synthetic(spec)
arch = tiny_cnn((1, 12, 12), 3)
params, history = train(train_ds, arch, TrainConfig(lr=0.2, epochs=6, batch_size=16, seed=3))
model = Model(arch)
print(f"{model.num_params} parameters, final train accuracy {history.accuracies[-1]:.2f}")

z_test = test_ds.example(0)
print(f"\ntest image: class {z_test.y}, predicted {model.predict(params, z_test.x[None])[0]}")

for method in ("grad-cos", "grad-effect"):
    ranking = rank_training_set(model, params, train_ds, z_test, method)
    top = ranking.helpful(3)
    bottom = ranking.harmful(3)
    print(f"\n{method}:")
    print("  most helpful:", [(r.train_index, round(r.score, 4)) for r in top])
    print("  most harmful:", [(r.train_index, round(r.score, 4)) for r in bottom])

# the Hessian-based scores need the dense Hessian once; by default its solves
# are damped past the most negative eigenvalue, so they stay positive
# definite at a non-minimum
hessian = dense_hessian(model, params, train_ds.subset(range(50)))
print(f"\ndamping lambda = {hessian.damping():.4f} (smallest Hessian eigenvalue {hessian.lambda_min:+.4f})")

for method in ("influence", "relatif"):
    ranking = rank_training_set(model, params, train_ds, z_test, method, hessian=hessian)
    print(f"{method}:")
    print("  most helpful:", [(r.train_index, round(r.score, 4)) for r in ranking.helpful(3)])
    print("  most harmful:", [(r.train_index, round(r.score, 4)) for r in ranking.harmful(3)])
