"""Model construction, initialization, gradients, and training."""

import dataclasses
import inspect
import re
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cifar_records import encode_cifar10_bytes, write_batches
from tfa import autodiff as ad
from tfa import harness, models, saliency, tda
from tfa.datasets import SyntheticShapesSpec, generate_synthetic, load_cifar10_binary
from tfa.models import (
    EVAL_ROWS,
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
    @pytest.mark.parametrize(
        "layers, input_shape, num_classes, error, reason",
        [
            pytest.param((Dense(3, 2),), (4,), 2, ad.ShapeError, "matmul: incompatible shapes (1, 4) @ (3, 2)",
                         id="dense-size"),
            pytest.param((Conv2d(1, 4, 3), Flatten(), Dense(4, 2)), (3, 8, 8), 2, ad.ShapeError,
                         "conv2d: input has 3 channels, kernel expects 1", id="conv-channels"),
            pytest.param((Dense(4, 5),), (4,), 2, ValueError, "final layer produces (5,), expected (2,)",
                         id="class-count"),
            pytest.param((Conv2d(1, 4, 9), Flatten(), Dense(4, 2)), (1, 8, 8), 2, ad.ShapeError,
                         "conv2d: kernel 9x9 larger than input 8x8", id="kernel-larger-than-input"),
            pytest.param((MaxPool(2), Dense(2, 2)), (4,), 2, ad.ShapeError,
                         "maxpool2d expects a 4-d input, got (1, 4)", id="pool-on-flat-input"),
            pytest.param((MaxPool(9), Flatten(), Dense(36, 2)), (1, 6, 6), 2, ad.ShapeError,
                         "maxpool2d: window 9 larger than input 6x6", id="window-larger-than-input"),
            pytest.param((Conv2d(1, 2, 1), Dense(4, 2)), (1, 6, 6), 2, ad.ShapeError,
                         "matmul: incompatible shapes (1, 2, 6, 6) @ (4, 2)", id="dense-on-spatial-input"),
            pytest.param((Dense(4, 2), "dense"), (4,), 2, TypeError, "unknown layer 'dense'", id="unknown-layer"),
            pytest.param(None, (1, 8, 8), 3, ValueError,
                         "tiny_cnn input 8x8 is too small: each side must be at least 10 px",
                         id="tiny-cnn-input-too-small"),  # None: models.tiny_cnn(input_shape, num_classes)
            pytest.param(None, (1, 4, 12), 3, ValueError,
                         "tiny_cnn input 4x12 is too small: each side must be at least 10 px",
                         id="tiny-cnn-negative-head"),
            pytest.param((Dense(-2, 2),), (4,), 2, ValueError, "layer 0 (Dense): in_features must be at least 1, got -2",
                         id="dense-negative-in"),
            pytest.param((Dense(0, 2),), (0,), 2, ValueError, "layer 0 (Dense): in_features must be at least 1, got 0",
                         id="dense-zero-in"),
            pytest.param((Conv2d(1, 0, 3), Flatten(), Dense(4, 2)), (1, 4, 4), 2, ValueError,
                         "layer 0 (Conv2d): out_channels must be at least 1, got 0", id="conv-zero-channels"),
            pytest.param((Conv2d(1, 2, 0), Flatten(), Dense(4, 2)), (1, 4, 4), 2, ValueError,
                         "layer 0 (Conv2d): kernel must be at least 1, got 0", id="conv-zero-kernel"),
            pytest.param((Relu(), MaxPool(0), Flatten(), Dense(4, 2)), (1, 2, 2), 2, ValueError,
                         "layer 1 (MaxPool): kernel must be at least 1, got 0", id="pool-zero-window"),
            pytest.param((MaxPool(-1), Flatten(), Dense(4, 2)), (1, 2, 2), 2, ValueError,
                         "layer 0 (MaxPool): kernel must be at least 1, got -1", id="pool-negative-window"),
        ],
    )
    def test_mismatched_layers_rejected(self, layers, input_shape, num_classes, error, reason, no_cyclic_garbage):
        with pytest.raises(error, match=re.escape(reason)):
            if layers is None:
                models.tiny_cnn(input_shape, num_classes)
            else:
                ArchitectureSpec(layers, input_shape, num_classes)

    def test_parameter_count_stays_small(self, no_cyclic_garbage):
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

    def test_one_gradient_of_the_343_parameter_model_records_at_most_69_nodes(self, monkeypatch):
        arch = ArchitectureSpec(  # acceptance criterion 4's single-block model
            layers=(Conv2d(1, 4, 3), Relu(), MaxPool(2), Flatten(), Dense(100, 3)),
            input_shape=(1, 12, 12),
            num_classes=3,
        )
        model = Model(arch)
        assert model.num_params == 343
        recorded = []
        backward = ad.backward

        def counted(root, wrt):
            out = backward(root, wrt)
            recorded.append(len(root.graph.nodes))
            return out

        monkeypatch.setattr(ad, "backward", counted)
        ex = LabeledExample(np.random.default_rng(5).uniform(0.0, 1.0, size=(1, 12, 12)), 2)
        model.param_grad(init_params(arch, seed=0), ex)
        assert len(recorded) == 1 and recorded[0] <= 69  # identity reshapes record nothing

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

    @pytest.mark.parametrize("extra", [1, -1])
    def test_parameter_vector_of_another_length_rejected(self, extra):
        arch = tiny_cnn()
        model = Model(arch)
        params = init_params(arch, seed=0)
        wrong = models.ParamVector(np.resize(params.data, params.size + extra), params.layout)
        ds = Dataset(np.zeros((2, 1, 12, 12)), [0, 1])
        calls = (model.loss, model.param_grad, lambda p, _: tda.dense_hessian(model, p, ds))
        for call in calls:
            with pytest.raises(ad.ShapeError, match=re.escape(f"shape ({params.size + extra},), expected")):
                call(wrong, ds.example(0))


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
        before = model.loss(params, ex)
        stepped = sgd_step(params, model.param_grad(params, ex), lr=0.05)
        assert model.loss(stepped, ex) < before
        # original untouched
        assert model.loss(params, ex) == before

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

    def test_epoch_accuracy_off_skips_only_the_accuracy_pass(self):
        rng = np.random.default_rng(19)
        ds = Dataset(rng.uniform(0.0, 1.0, size=(40, 1, 8, 8)), rng.integers(0, 2, size=40))
        arch = ArchitectureSpec(
            layers=(Conv2d(1, 4, 3), Relu(), MaxPool(2), Flatten(), Dense(36, 2)),
            input_shape=(1, 8, 8),
            num_classes=2,
        )
        config = TrainConfig(lr=0.1, epochs=2, batch_size=16, seed=20)
        p1, h1 = train(ds, arch, config)
        p2, h2 = train(ds, arch, config, epoch_accuracy=False)
        assert p1.data.tobytes() == p2.data.tobytes()
        assert h1.losses == h2.losses
        assert len(h1.accuracies) == 2 and h2.accuracies == []
        assert h1.accuracies[-1] == Model(arch).accuracy(p2, ds)

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
        for lr in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="learning rate must be positive"):
                TrainConfig(lr=lr)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


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

    def test_slices_match_one_graph(self):
        _, model, params, ds = self.setup_70()
        graph = ad.Graph()
        theta, X = graph.constant(params.data), graph.constant(ds.X)
        logits = model.record_forward(theta, X)
        loss = model.record_batch_loss(theta, X, ds.y)

        np.testing.assert_allclose(model.logits(params, ds.X), logits.value, rtol=1e-12)
        np.testing.assert_array_equal(model.predict(params, ds.X), logits.value.argmax(axis=1))
        np.testing.assert_allclose(model.mean_loss(params, ds), float(loss.value), rtol=1e-12)

    def test_window_tables_are_kept_per_layer_geometry_not_batch_size(self, monkeypatch):
        arch, model, _, ds = self.setup_70()
        monkeypatch.setattr(ad, "_WINDOW_TABLES", {})
        # batches of 32, 32 and 6 rows, in training, accuracy and one 70-row graph
        params, _ = train(ds, arch, TrainConfig(lr=0.1, epochs=1, batch_size=32, seed=18))
        model.accuracy(params, ds)
        graph = ad.Graph()
        model.record_batch_loss(graph.constant(params.data), graph.constant(ds.X), ds.y, "cross-entropy")

        # only conv2d reads a table; maxpool2d reads strided views
        convs = [layer for layer in arch.layers if isinstance(layer, Conv2d)]
        inputs = [node.parents[0].shape[1:] for node in graph.nodes if node.kind == "im2col"]
        geometries = {(*shape, conv.kernel, conv.kernel) for shape, conv in zip(inputs, convs, strict=True)}
        assert len(ad._WINDOW_TABLES) == len(geometries) == 2
        assert set(ad._WINDOW_TABLES) == geometries
        # a smaller batch recorded meanwhile reads a prefix of the live batch's indices
        small = ad.Graph()
        model.record_batch_loss(small.constant(params.data), small.constant(ds.X[:6]), ds.y[:6], "cross-entropy")
        im2col = [[node.meta for node in g.nodes if node.kind == "im2col"] for g in (graph, small)]
        assert len(im2col[1]) == 2 and all(np.shares_memory(a, b) for a, b in zip(*im2col))
        # and the indices of a batch live only as long as a graph holds them
        del graph, small, im2col
        assert all(last() is None for _, last in ad._WINDOW_TABLES.values())

    def test_value_only_passes_build_no_pool_indices(self, monkeypatch):
        _, model, params, ds = self.setup_70()
        built = []

        def counted(*args):
            built.append(1)
            return pool_indices(*args)

        pool_indices = ad._pool_indices
        monkeypatch.setattr(ad, "_pool_indices", counted)
        model.logits(params, ds.X)
        model.accuracy(params, ds)
        model.mean_loss(params, ds)
        assert built == []
        graph = ad.Graph()
        theta = graph.leaf(params.data)
        loss = model.record_batch_loss(theta, graph.constant(ds.X[:4]), ds.y[:4], "cross-entropy")
        for _ in range(2):  # each pool builds its indices at its first VJP and keeps them
            ad.backward(loss, [theta])
        assert len(built) == 2

    def test_value_only_passes_peak_at_two_slices_whatever_the_row_count(self):
        """Each slice's nodes live until the next slice is recorded, and no longer."""
        _, model, params, _ = self.setup_70()
        rng = np.random.default_rng(18)
        sets = {n: Dataset(rng.uniform(0.0, 1.0, size=(n, 1, 12, 12)), rng.integers(0, 3, size=n)) for n in (EVAL_ROWS, 70, 700)}

        def peak(f, ds):
            f(params, ds)  # builds the window tables, which outlive the pass
            tracemalloc.start()
            try:
                f(params, ds)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for f in (model.accuracy, model.mean_loss):
            one, peaks = peak(f, sets[EVAL_ROWS]), {n: peak(f, sets[n]) for n in (70, 700)}
            assert peaks[70] <= 2 * one, f.__name__
            # the outputs grow by about 40 bytes a row, 25 kB here; a third live slice would add `one`
            assert peaks[700] <= peaks[70] + 0.05 * one, f.__name__

    def test_empty_dataset(self):
        _, model, params, ds = self.setup_70()
        empty = Dataset(ds.X[:0], ds.y[:0])
        assert model.logits(params, empty.X).shape == (0, 3)
        with pytest.raises(ValueError, match="empty dataset"):
            model.mean_loss(params, empty)
        with pytest.raises(ValueError, match="empty dataset"):
            model.accuracy(params, empty)
        with pytest.raises(ValueError, match="cannot train on an empty dataset"):
            train(empty, model.arch, TrainConfig(epochs=1))
        initial, _ = train(empty, model.arch, TrainConfig(epochs=0, seed=4))
        np.testing.assert_array_equal(initial.data, init_params(model.arch, seed=4).data)


class TestGradientStore:
    """Model.param_grads keeps the last (N, p) gradient matrix, keyed by the identity of params and dataset."""

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

    @pytest.mark.parametrize("change", ["params", "X", "y"])
    def test_changed_input_rebuilds(self, change):
        """Parameters and a dataset's arrays refuse an in-place write, and new
        parameters, or a new dataset that differs in one pixel or one label, rebuild."""
        arch, model, params, ds = self.setup_9()
        before = model.param_grads(params, ds)
        X, y = ds.X.copy(), ds.y.copy()
        if change == "params":
            with pytest.raises(ValueError, match="read-only"):
                params.data[0] += 0.1
            bumped = params.data.copy()
            bumped[0] += 0.1
            params = models.ParamVector(bumped, params.layout)
        elif change == "X":
            with pytest.raises(ValueError, match="read-only"):
                ds.X[0, 0, 0, 0] = 1.0 - ds.X[0, 0, 0, 0]
            X[0, 0, 0, 0] = 1.0 - X[0, 0, 0, 0]
        else:
            with pytest.raises(ValueError, match="read-only"):
                ds.y[0] = 1
            y[0] = 1
        ds = ds if change == "params" else Dataset(X, y)
        after = model.param_grads(params, ds)
        assert after is not before
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(after, Model(arch).param_grads(params, ds))

    def test_equal_content_twins_rebuild_their_entry(self):
        """The store keys by identity: a new ParamVector or Dataset of equal content computes G again, equal."""
        _, model, params, ds = self.setup_9()
        G = model.param_grads(params, ds)
        for twin_params, twin_ds in (
            (models.ParamVector(params.data, params.layout), ds),
            (params, Dataset(ds.X, ds.y)),
        ):
            again = model.param_grads(twin_params, twin_ds)
            assert again is not G
            np.testing.assert_array_equal(again, G)
        assert model.param_grads(params, ds) is not G  # the twin's entry replaced G's

    def test_a_caller_who_unlocks_and_writes_an_array_moves_no_dataset(self):
        """numpy lets an array's owner make it writable again; the dataset keeps its own copy."""
        _, model, params, ds = self.setup_9()
        X, y = ds.X.copy(), ds.y.copy()
        X.flags.writeable = y.flags.writeable = False
        mine = Dataset(X, y)
        G = model.param_grads(params, mine)
        X.flags.writeable = y.flags.writeable = True
        X[0, 0, 0, 0], y[0] = 1.0 - X[0, 0, 0, 0], (y[0] + 1) % 3
        np.testing.assert_array_equal(mine.X, ds.X)
        np.testing.assert_array_equal(mine.y, ds.y)
        assert model.param_grads(params, mine) is G
        np.testing.assert_array_equal(G, Model(model.arch).param_grads(params, ds))

    def test_empty_subset_is_an_empty_dataset(self):
        _, model, params, ds = self.setup_9()
        for empty in (ds.subset(range(0)), ds.subset([])):
            assert len(empty) == 0
            assert empty.X.shape == (0, 1, 12, 12)
        assert model.param_grads(params, empty).shape == (0, model.num_params)


class TestDataset:
    def test_arrays_are_read_only_and_fields_frozen(self):
        ds = Dataset(np.zeros((3, 2)), [0, 1, 0])
        assert ds.X.dtype == np.float64 and ds.y.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            ds.X[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            ds.y[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.X = np.ones((3, 2))

    def test_a_caller_array_is_always_copied(self):
        X, y = np.zeros((3, 2)), np.array([0, 1, 0])
        ds = Dataset(X, y)
        X[0, 0], y[0] = 1.0, 1  # the caller's arrays stay writable; the dataset's copies do not move
        assert ds.X[0, 0] == 0.0 and ds.y[0] == 0
        X.flags.writeable = y.flags.writeable = False
        assert not np.shares_memory(Dataset(X, y).X, X) and not np.shares_memory(Dataset(X, y).y, y)

    def test_no_array_of_a_value_can_be_made_writable_or_replaced(self):
        """Nor any array on the .base chain of a value's array or of a store result: numpy lets an owner unlock."""
        arch = logistic(4, 2)
        model, params = Model(arch), init_params(arch, seed=0)
        ds = Dataset(np.random.default_rng(0).standard_normal((5, 4)), [0, 1, 0, 1, 1])
        z = ds.example(0)
        assert np.shares_memory(z.x, ds.X)  # a locked row is kept, not copied
        h = tda.dense_hessian(model, params, ds)
        for method in ("influence", "relatif"):
            tda.rank_training_set(model, params, ds, z, method, hessian=h)
        stored = [model._kept[slot][2] for slot in ("grads", "query", "solve", "norms")]
        for a in (ds.X, ds.y, params.data, z.x, *stored):
            while isinstance(a, np.ndarray):
                with pytest.raises(ValueError):
                    a.flags.writeable = True
                a = a.base
        with pytest.raises(ValueError, match="read-only"):
            params.data[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            z.x[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.data = np.zeros(params.size)
        with pytest.raises(dataclasses.FrozenInstanceError):
            z.x = np.zeros_like(z.x)

    def test_library_constructors_return_locked_arrays(self, tmp_path):
        spec = SyntheticShapesSpec(size=12, train_per_class=4, holdout_per_class=1, test_per_class=1)
        splits = list(generate_synthetic(spec))
        patch = harness.PatchSpec(3, (0.9,), target_class=0, fraction=0.5)
        splits += [splits[0].subset([0, 2]), harness.make_patched_dataset(splits[0], patch)]
        raw = encode_cifar10_bytes(np.zeros((2, 3, 32, 32)), [0, 1])
        write_batches(tmp_path, [raw] * 5, raw)
        splits += load_cifar10_binary(tmp_path, (0, 1), 5, 1)
        assert len(splits) == 8  # three splits, a subset, a patched set, three CIFAR-10 splits
        for ds in splits:
            for a in (ds.X, ds.y):
                with pytest.raises(ValueError):
                    a.flags.writeable = True

    def test_a_subset_peaks_at_two_copies_of_its_arrays(self):
        """The row selection and the dataset's own copy of it: the selection is freed once copied."""
        rng = np.random.default_rng(3)
        ds = Dataset(rng.uniform(0.0, 1.0, size=(400, 1, 32, 32)), np.arange(400) % 3)
        rows = np.arange(0, 400, 2)
        tracemalloc.start()
        try:
            half = ds.subset(rows)
            peak = tracemalloc.get_traced_memory()[1]
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert np.array_equal(half.X, ds.X[rows])
        nbytes = half.X.nbytes + half.y.nbytes
        assert peak < 2.25 * nbytes  # a third copy would triple it
        assert kept < 1.25 * nbytes


class TestLossKind:
    """Softmax cross-entropy is the one loss; only the loss recorders name it, and no entry point takes a kind."""

    def test_unknown_kind_is_rejected(self):
        model = Model(logistic(2, 2))
        graph = ad.Graph()
        theta, X = graph.constant(np.zeros(model.num_params)), graph.constant(np.zeros((1, 2)))
        with pytest.raises(ValueError, match="unknown loss 'mse'; the one loss is 'cross-entropy'"):
            model.record_batch_loss(theta, X, np.array([0]), "mse")

    def test_model_and_config_take_no_loss_setting(self):
        with pytest.raises(TypeError):
            Model(logistic(2, 2), "cross-entropy")
        with pytest.raises(TypeError):
            TrainConfig(loss="cross-entropy")

    def test_no_attribution_entry_point_takes_a_loss_kind(self):
        entry_points = [Model.loss, Model.mean_loss, Model.param_grad, Model.param_grads]
        for module in (tda, saliency, harness):
            for name, value in vars(module).items():
                if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    entry_points.append(value)
                elif inspect.isclass(value):
                    methods = inspect.getmembers(value, inspect.isfunction)
                    entry_points += [f for n, f in methods if not n.startswith("_")]
        assert len(entry_points) > 20
        for f in entry_points:
            assert "kind" not in inspect.signature(f).parameters, f.__qualname__


def cnn_343():
    """The single-block CNN of acceptance criterion 4: 343 parameters."""
    return ArchitectureSpec(
        layers=(Conv2d(1, 4, 3), Relu(), MaxPool(2), Flatten(), Dense(100, 3)), input_shape=(1, 12, 12), num_classes=3
    )


def mlp_relu_first():
    """An MLP whose first relu reads the input, so a signed zero of the input reaches it unchanged."""
    return ArchitectureSpec(layers=(Relu(), Dense(4, 5), Relu(), Dense(5, 3)), input_shape=(4,), num_classes=3)


# dyadic values: sums of their products are exact, so relu inputs of exactly
# zero and pool windows with tied maxima are common
PARAM_VALUES = [0.0, -0.0, 0.25, -0.25, 0.5, -1.0]
INPUT_VALUES = [0.0, -0.0, 0.25, 0.5, 1.0]


def first_recording(arch, params, example) -> np.ndarray:
    """param_grad on a fresh Model: the call that records through the ops."""
    return Model(arch).param_grad(params, example)


class TestGradientPrograms:
    """Model.param_grad records once per label and replays that program on new values."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_a_replay_is_bitwise_the_first_recording(self, data):
        arch = data.draw(st.sampled_from([logistic(), mlp_relu_first(), cnn_343()]))
        shape, p = arch.input_shape, Model(arch).num_params
        layout = init_params(arch, 0).layout
        draw_params = lambda: models.ParamVector(data.draw(hnp.arrays(np.float64, p, elements=st.sampled_from(PARAM_VALUES))), layout)
        draw_x = lambda: data.draw(hnp.arrays(np.float64, shape, elements=st.sampled_from(INPUT_VALUES)))
        k = arch.num_classes
        # each label's program is recorded at other params and inputs than it replays
        model, recorded_at = Model(arch), draw_params()
        for y in range(k):
            model.param_grad(recorded_at, LabeledExample(draw_x(), y))
        params = draw_params()
        ds = Dataset(np.stack([draw_x() for _ in range(2 * k)]), np.arange(2 * k) % k)
        for i in range(len(ds)):
            assert model.param_grad(params, ds.example(i)).tobytes() == first_recording(arch, params, ds.example(i)).tobytes()
        G = model.param_grads(params, ds)
        for i in range(len(ds)):
            assert G[i].tobytes() == first_recording(arch, params, ds.example(i)).tobytes()
        assert len(model._programs) == k

    def test_a_replay_rebuilds_relu_masks_and_pool_argmaxes_from_its_own_values(self):
        """Exact zeros of both signs before a relu, and tied pool windows, replayed
        on a model whose program was recorded at other values."""
        rng = np.random.default_rng(31)
        cnn, mlp = cnn_343(), mlp_relu_first()
        data = rng.choice([0.25, -0.5, 1.0], size=343)
        data[0:9] = data[36] = 0.0  # conv channel 0 reads nothing and adds nothing: its relu inputs are exactly 0.0
        blocks = np.kron(rng.choice([0.0, 0.5, 1.0], size=(3, 3)), np.ones((4, 4)))[None]  # constant blocks tie windows
        cases = [
            (cnn, models.ParamVector(data, init_params(cnn, 0).layout), blocks),
            (mlp, init_params(mlp, 4), np.array([-0.0, 0.0, 0.5, -0.0])),  # the first relu reads the input
        ]
        for arch, params, x in cases:
            model = Model(arch)
            model.param_grad(init_params(arch, 3), LabeledExample(rng.uniform(0.0, 1.0, arch.input_shape), 1))
            graph = ad.Graph()
            model.record_example_loss(graph.leaf(params.data), graph.constant(x), 1)
            relu_in = [n.parents[0].value for n in graph.nodes if n.kind == "relu"][0]
            assert (relu_in == 0.0).any() and (relu_in != 0.0).any()
            if arch is mlp:
                assert np.signbit(relu_in[relu_in == 0.0]).any() and not np.signbit(relu_in[relu_in == 0.0]).all()
            else:
                pooled = [n for n in graph.nodes if n.kind == "maxpool"][0]
                windows = np.sort(np.stack(ad._pool_views(pooled.parents[0].value, 2), axis=-1), axis=-1)
                assert ((windows[..., -1] == windows[..., -2]) & (windows[..., -1] > 0.0)).any()
            example = LabeledExample(x, 1)
            assert model.param_grad(params, example).tobytes() == first_recording(arch, params, example).tobytes()

    def test_the_replay_path_keeps_the_first_calls_checks(self):
        arch = cnn_343()
        params = init_params(arch, 0)
        x = np.random.default_rng(32).uniform(0.0, 1.0, (1, 12, 12))
        model = Model(arch)
        for y in range(3):
            model.param_grad(params, LabeledExample(x, y))
        nan = params.data.copy()
        nan[5] = np.nan
        huge = models.ParamVector(np.full(343, 1e200), params.layout)  # finite, but the logits overflow
        cases = [
            (models.ParamVector(nan, params.layout), LabeledExample(x, 0), ValueError, "non-finite"),
            (huge, LabeledExample(x, 0), ValueError, "non-finite maximum"),
            (params, LabeledExample(np.zeros((1, 13, 13)), 0), ad.ShapeError, "reshape"),
            (params, LabeledExample(x, 3), ValueError, "label out of range"),
        ]
        for case_params, example, error, match in cases:
            messages = []
            for m in (Model(arch), model):  # a first call, then the model that holds every label's program
                with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error, match=match) as raised:
                    m.param_grad(case_params, example)
                messages.append(str(raised.value))
            assert messages[0] == messages[1]
        assert sorted(model._programs) == [0, 1, 2]

    def test_a_model_holds_at_most_one_program_per_class_and_no_value(self):
        arch = cnn_343()
        model = Model(arch)
        params = init_params(arch, 0)
        example = LabeledExample(np.random.default_rng(33).uniform(0.0, 1.0, (1, 12, 12)), 2)
        model.param_grad(params, example)
        sources = [weakref.ref(v) for v in (params, params.data, example, example.x)]
        del params, example
        assert all(source() is None for source in sources)
        params = init_params(arch, 1)
        for y in [0, 1, 2, 0, 2]:
            model.param_grad(params, LabeledExample(np.zeros((1, 12, 12)), y))
            model.param_grad(params, LabeledExample(np.zeros(144), y))  # another shape records its label again
        assert sorted(model._programs) == [0, 1, 2]

    def test_a_program_keeps_no_batch_of_window_indices_alive(self, monkeypatch):
        monkeypatch.setattr(ad, "_WINDOW_TABLES", {})
        arch = cnn_343()
        params = init_params(arch, 0)
        rng = np.random.default_rng(35)
        graph = ad.Graph()  # its 40 rows of window indices are the live batch when param_grad records
        Model(arch).record_forward(graph.constant(params.data), graph.constant(rng.uniform(0.0, 1.0, (40, 1, 12, 12))))
        model = Model(arch)
        model.param_grad(params, LabeledExample(rng.uniform(0.0, 1.0, (1, 12, 12)), 0))
        (_, batch), = ad._WINDOW_TABLES.values()
        assert len(batch()) == 40
        del graph
        assert batch() is None and list(model._programs) == [0]

    def test_threads_share_a_models_programs(self):
        """Eight threads, switching every microsecond, record and replay one model's programs with the bytes of a first call."""
        arch = cnn_343()
        params = init_params(arch, 5)
        rng = np.random.default_rng(34)
        examples = [LabeledExample(rng.uniform(0.0, 1.0, (1, 12, 12)), i % 3) for i in range(12)]
        expected = [first_recording(arch, params, e).tobytes() for e in examples]
        model, interval = Model(arch), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda e: model.param_grad(params, e).tobytes(), examples * 4, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == expected * 4
        assert sorted(model._programs) == [0, 1, 2]
