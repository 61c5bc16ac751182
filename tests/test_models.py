"""Model construction, initialization, gradients, and training."""

import numpy as np
import pytest

from tfa import autodiff as ad
from tfa import models
from tfa.models import (
    ArchitectureSpec,
    Conv2d,
    Dataset,
    Dense,
    Flatten,
    LabeledExample,
    MaxPool,
    Model,
    Relu,
    TrainConfig,
    init_params,
    sgd_step,
    train,
)


def tiny_cnn(input_shape=(1, 12, 12), num_classes=2):
    c = input_shape[0]
    return ArchitectureSpec(
        layers=(
            Conv2d(c, 8, 3),
            Relu(),
            MaxPool(2),
            Conv2d(8, 16, 3),
            Relu(),
            MaxPool(2),
            Flatten(),
            Dense(16 * 1 * 1, num_classes),
        ),
        input_shape=input_shape,
        num_classes=num_classes,
    )


def logistic(d=4, k=3):
    return ArchitectureSpec(layers=(Dense(d, k),), input_shape=(d,), num_classes=k)


class TestArchitecture:
    def test_shape_chain_of_the_cnn(self):
        arch = tiny_cnn()
        shapes = arch.layer_shapes()
        assert shapes[0] == (8, 10, 10)
        assert shapes[2] == (8, 5, 5)
        assert shapes[3] == (16, 3, 3)
        assert shapes[5] == (16, 1, 1)
        assert shapes[-1] == (2,)

    def test_mismatched_layers_rejected(self):
        with pytest.raises(ValueError):
            ArchitectureSpec(layers=(Dense(3, 2),), input_shape=(4,), num_classes=2)
        with pytest.raises(ValueError):
            ArchitectureSpec(
                layers=(Conv2d(1, 4, 3), Flatten(), Dense(4, 2)),
                input_shape=(3, 8, 8),
                num_classes=2,
            )
        with pytest.raises(ValueError):
            # final shape must equal the class count
            ArchitectureSpec(layers=(Dense(4, 5),), input_shape=(4,), num_classes=2)

    def test_parameter_count_stays_small(self):
        arch = tiny_cnn()
        assert Model(arch).num_params < 20_000


class TestInit:
    def test_weight_mean_near_zero_biases_zero(self):
        arch = ArchitectureSpec(layers=(Dense(100, 100),), input_shape=(100,), num_classes=100)
        params = init_params(arch, seed=0)
        weights = params.data[:10_000]
        biases = params.data[10_000:]
        limit = np.sqrt(6.0 / 200.0)
        sigma = limit / np.sqrt(3.0)
        assert abs(weights.mean()) < 3.0 * sigma / 100.0
        assert np.all(np.abs(weights) <= limit)
        np.testing.assert_array_equal(biases, 0.0)

    def test_deterministic_in_seed(self):
        arch = tiny_cnn()
        a = init_params(arch, seed=7).data
        b = init_params(arch, seed=7).data
        c = init_params(arch, seed=8).data
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestLossAndGrad:
    def test_uniform_logits_give_log_k(self):
        arch = logistic(4, 3)
        model = Model(arch)
        params = models.ParamVector(np.zeros(model.num_params), model.layout)
        ex = LabeledExample(np.array([0.2, -0.1, 0.5, 0.0]), 1)
        np.testing.assert_allclose(model.loss(params, ex), np.log(3.0), rtol=1e-12)

    def test_mse_gradient_at_zero_weights(self):
        # with all weights zero the gradient is -(2/K) x on the true row
        arch = logistic(3, 2)
        model = Model(arch)
        params = models.ParamVector(np.zeros(model.num_params), model.layout)
        x = np.array([0.5, -1.0, 2.0])
        g = model.param_grad(params, LabeledExample(x, 1), kind="mse")
        w_grad = g[:6].reshape(3, 2)
        b_grad = g[6:]
        expected = np.zeros((3, 2))
        expected[:, 1] = -x
        np.testing.assert_allclose(w_grad, expected, rtol=1e-12)
        np.testing.assert_allclose(b_grad, [0.0, -1.0], rtol=1e-12)

    def test_param_grad_matches_fd_on_cnn(self):
        arch = tiny_cnn()
        model = Model(arch)
        params = init_params(arch, seed=1)
        rng = np.random.default_rng(2)
        ex = LabeledExample(rng.uniform(0.0, 1.0, size=(1, 12, 12)), 1)

        g = model.param_grad(params, ex)
        # spot-check a sample of coordinates against central differences
        coords = rng.choice(model.num_params, size=25, replace=False)
        for j in coords:
            def f(t):
                return Model(arch).loss(models.ParamVector(t, params.layout), ex)

            bump = np.zeros_like(params.data)
            bump[j] = 1e-5
            fd = (f(params.data + bump) - f(params.data - bump)) / 2e-5
            np.testing.assert_allclose(g[j], fd, rtol=2e-5, atol=1e-10)

    def test_batch_loss_is_mean_of_example_losses(self):
        arch = logistic(4, 3)
        model = Model(arch)
        params = init_params(arch, seed=3)
        rng = np.random.default_rng(4)
        ds = Dataset(rng.standard_normal((6, 4)), rng.integers(0, 3, size=6))
        per = [model.loss(params, ds.example(i)) for i in range(len(ds))]
        np.testing.assert_allclose(model.mean_loss(params, ds), np.mean(per), rtol=1e-12)

    def test_label_out_of_range_rejected(self):
        arch = logistic(4, 3)
        model = Model(arch)
        params = init_params(arch, seed=0)
        with pytest.raises(ValueError):
            model.loss(params, LabeledExample(np.zeros(4), 3))


class TestExamples:
    def test_image_values_validated(self):
        with pytest.raises(ValueError):
            LabeledExample(np.full((1, 4, 4), 1.5), 0)
        with pytest.raises(ValueError):
            LabeledExample(np.array([np.nan, 0.0]), 0)

    def test_vector_examples_unrestricted_in_range(self):
        LabeledExample(np.array([-5.0, 7.0]), 1)  # no raise


class TestTraining:
    def test_sgd_step_decreases_convex_loss(self):
        arch = logistic(2, 2)
        model = Model(arch)
        params = init_params(arch, seed=5)
        ex = LabeledExample(np.array([1.0, -2.0]), 0)
        before = model.loss(params, ex, kind="mse")
        stepped = sgd_step(params, model.param_grad(params, ex, kind="mse"), lr=0.05)
        assert model.loss(stepped, ex, kind="mse") < before
        # original untouched
        assert model.loss(params, ex, kind="mse") == before

    def test_sgd_step_rejects_bad_shapes(self):
        arch = logistic(2, 2)
        params = init_params(arch, seed=0)
        with pytest.raises(ValueError):
            sgd_step(params, np.zeros(3), lr=0.1)

    def test_untrained_accuracy_near_chance_on_random_labels(self):
        rng = np.random.default_rng(6)
        k = 3
        ds = Dataset(rng.standard_normal((600, 8)), rng.integers(0, k, size=600))
        arch = logistic(8, k)
        model = Model(arch)
        acc = model.accuracy(init_params(arch, seed=7), ds)
        assert 1.0 / k - 0.1 <= acc <= 1.0 / k + 0.1

    def test_logistic_model_separates_blobs(self):
        rng = np.random.default_rng(8)
        n = 200
        x0 = rng.normal([-2.0, 0.0], 0.4, size=(n, 2))
        x1 = rng.normal([2.0, 0.0], 0.4, size=(n, 2))
        ds = Dataset(np.vstack([x0, x1]), np.array([0] * n + [1] * n))
        arch = logistic(2, 2)
        config = TrainConfig(lr=0.5, epochs=20, batch_size=32, seed=9)
        params, history = train(ds, arch, config)
        assert Model(arch).accuracy(params, ds) >= 0.99
        assert history.losses[-1] < history.losses[0]
        assert len(history.losses) == 20

    def test_zero_epochs_returns_init(self):
        rng = np.random.default_rng(10)
        ds = Dataset(rng.standard_normal((10, 4)), rng.integers(0, 3, size=10))
        arch = logistic(4, 3)
        config = TrainConfig(epochs=0, seed=11)
        params, history = train(ds, arch, config)
        np.testing.assert_array_equal(params.data, init_params(arch, seed=11).data)
        assert history.losses == []

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(12)
        ds = Dataset(rng.uniform(0.0, 1.0, size=(40, 1, 8, 8)), rng.integers(0, 2, size=40))
        arch = ArchitectureSpec(
            layers=(Conv2d(1, 4, 3), Relu(), MaxPool(2), Flatten(), Dense(36, 2)),
            input_shape=(1, 8, 8),
            num_classes=2,
        )
        config = TrainConfig(lr=0.1, epochs=2, batch_size=16, seed=13)
        p1, h1 = train(ds, arch, config)
        p2, h2 = train(ds, arch, config)
        assert np.array_equal(p1.data, p2.data)
        assert h1.losses == h2.losses

    def test_cnn_learns_a_simple_rule(self):
        # bright top half vs bright bottom half
        rng = np.random.default_rng(14)
        n = 120
        X = rng.uniform(0.0, 0.2, size=(n, 1, 12, 12))
        y = np.zeros(n, dtype=int)
        for i in range(n):
            if i % 2 == 0:
                X[i, 0, :6] += 0.6
            else:
                X[i, 0, 6:] += 0.6
                y[i] = 1
        X = np.clip(X, 0.0, 1.0)
        ds = Dataset(X, y)
        arch = tiny_cnn()
        params, _ = train(ds, arch, TrainConfig(lr=0.2, epochs=8, batch_size=16, seed=15))
        assert Model(arch).accuracy(params, ds) >= 0.95


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(loss="hinge")


class TestEvaluationSlices:
    """Plain-value passes record at most EVAL_ROWS examples per graph."""

    @staticmethod
    def setup_70():
        arch = tiny_cnn(num_classes=3)
        model = Model(arch)
        params = init_params(arch, seed=16)
        rng = np.random.default_rng(17)
        ds = Dataset(rng.uniform(0.0, 1.0, size=(70, 1, 12, 12)), rng.integers(0, 3, size=70))
        return arch, model, params, ds

    @pytest.mark.parametrize("kind", models.LOSS_KINDS)
    def test_slices_match_one_graph(self, kind):
        _, model, params, ds = self.setup_70()
        graph = ad.Graph()
        theta, X = graph.constant(params.data), graph.constant(ds.X)
        logits, _ = model.record_forward(theta, X)
        loss = model.record_batch_loss(theta, X, ds.y, kind)

        np.testing.assert_allclose(model.logits(params, ds.X), logits.value, rtol=1e-12)
        np.testing.assert_array_equal(model.predict(params, ds.X), logits.value.argmax(axis=1))
        np.testing.assert_allclose(model.mean_loss(params, ds, kind), float(loss.value), rtol=1e-12)

    def test_window_tables_are_kept_per_layer_geometry_not_batch_size(self, monkeypatch):
        arch, model, _, ds = self.setup_70()
        monkeypatch.setattr(ad, "_WINDOW_TABLES", {})
        # batches of 32, 32 and 6 rows, in training, accuracy and one 70-row graph
        params, _ = train(ds, arch, TrainConfig(lr=0.1, epochs=1, batch_size=32, seed=18))
        model.accuracy(params, ds)
        graph = ad.Graph()
        model.record_batch_loss(graph.constant(params.data), graph.constant(ds.X), ds.y, "cross-entropy")

        geometries, shape = set(), arch.input_shape
        for layer, out in zip(arch.layers, arch.layer_shapes()):
            if isinstance(layer, Conv2d):
                geometries.add((*shape, layer.kernel, layer.kernel, layer.stride))
            elif isinstance(layer, MaxPool):
                geometries.add((*shape, layer.kernel, layer.kernel, layer.kernel))
            shape = out
        assert len(ad._WINDOW_TABLES) == len(geometries) == 4
        assert set(ad._WINDOW_TABLES) == geometries
        # a smaller batch recorded meanwhile reads a prefix of the live batch's indices
        small = ad.Graph()
        model.record_batch_loss(small.constant(params.data), small.constant(ds.X[:6]), ds.y[:6], "cross-entropy")
        im2col = [[node.meta for node in g.nodes if node.kind == "im2col"] for g in (graph, small)]
        assert len(im2col[1]) == 2 and all(np.shares_memory(a, b) for a, b in zip(*im2col))
        # and the indices of a batch live only as long as a graph holds them
        del graph, small, im2col
        assert all(last() is None for _, last in ad._WINDOW_TABLES.values())

    def test_empty_dataset(self):
        _, model, params, ds = self.setup_70()
        empty = Dataset(ds.X[:0], ds.y[:0])
        assert model.logits(params, empty.X).shape == (0, 3)
        with pytest.raises(ValueError, match="empty dataset"):
            model.mean_loss(params, empty)
        with pytest.raises(ValueError, match="empty dataset"):
            model.accuracy(params, empty)


class TestGradientStore:
    """Model.param_grads keeps the last (N, p) gradient matrix, keyed by content."""

    @staticmethod
    def setup_9():
        arch = tiny_cnn(num_classes=3)
        params = init_params(arch, seed=19)
        rng = np.random.default_rng(20)
        ds = Dataset(rng.uniform(0.0, 1.0, size=(9, 1, 12, 12)), np.arange(9) % 3)
        return arch, Model(arch), params, ds

    def test_rows_equal_param_grad_bitwise(self):
        _, model, params, ds = self.setup_9()
        G = model.param_grads(params, ds)
        assert G.shape == (len(ds), model.num_params)
        for i in range(len(ds)):
            np.testing.assert_array_equal(G[i], model.param_grad(params, ds.example(i)))
        assert model.param_grads(params, ds) is G

    def test_matrix_is_read_only(self):
        _, model, params, ds = self.setup_9()
        G = model.param_grads(params, ds)
        assert not G.flags.writeable
        with pytest.raises(ValueError):
            G[0, 0] = 1.0

    @pytest.mark.parametrize("change", ["params", "X", "y", "kind"])
    def test_changed_input_rebuilds(self, change):
        arch, model, params, ds = self.setup_9()
        kind = "cross-entropy"
        before = model.param_grads(params, ds, kind)
        if change == "params":
            params.data[0] += 0.1
        elif change == "X":
            ds.X[0, 0, 0, 0] = 1.0 - ds.X[0, 0, 0, 0]
        elif change == "y":
            ds.y[0] = 1
        else:
            kind = "mse"
        after = model.param_grads(params, ds, kind)
        assert after is not before
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(after, Model(arch).param_grads(params, ds, kind))

    def test_empty_subset_is_an_empty_dataset(self):
        _, model, params, ds = self.setup_9()
        for empty in (ds.subset(range(0)), ds.subset([])):
            assert len(empty) == 0
            assert empty.X.shape == (0, 1, 12, 12)
        assert model.param_grads(params, empty).shape == (0, model.num_params)
