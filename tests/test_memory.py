"""Graph lifetime: recorded graphs are freed by reference counting alone.

Every SGD batch, training gradient, Hessian column and SmoothGrad sample
records a fresh graph. If a graph were a reference cycle, its arrays would
wait for a full collection of the cyclic garbage collector, and memory would
grow with the work done. Each test here runs with that collector off and
fails if the work left anything for it.
"""

import weakref

import numpy as np
import pytest
from scipy.linalg import eigvalsh

from tfa import autodiff as ad
from tfa.models import (
    ArchitectureSpec,
    Conv2d,
    Dataset,
    Dense,
    Flatten,
    MaxPool,
    Model,
    ParamVector,
    Relu,
    TrainConfig,
    train,
)
from tfa.saliency import smoothgrad_saliency
from tfa.tda import dense_hessian, query_gradient, rank_training_set


def cnn_343():
    """The single-block CNN of acceptance criterion 4: 343 parameters."""
    return ArchitectureSpec(
        layers=(Conv2d(1, 4, 3), Relu(), MaxPool(2), Flatten(), Dense(100, 3)),
        input_shape=(1, 12, 12),
        num_classes=3,
    )


CONFIG = TrainConfig(lr=0.2, epochs=2, batch_size=16, seed=4)


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(0)
    ds = Dataset(rng.uniform(0.0, 1.0, size=(36, 1, 12, 12)), np.arange(36) % 3)
    params, _ = train(ds, cnn_343(), CONFIG)
    return Model(cnn_343()), params, ds


class TestGraphRelease:
    def test_dropped_graph_is_freed_by_reference_counting(self, no_cyclic_garbage):
        graph = ad.Graph()
        x = graph.leaf(np.array([0.3, 0.7, 1.1]))
        y = ad.reduce_sum(ad.div(ad.exp(x), ad.add(x, 1.0)))
        (g,) = ad.backward(y, [x])
        (gg,) = ad.backward(ad.reduce_sum(ad.mul(g, g)), [x])
        assert np.all(np.isfinite(gg.value))
        graph_ref, root_ref = weakref.ref(graph), weakref.ref(y)
        del graph, x, y, g, gg
        assert graph_ref() is None
        assert root_ref() is None

    def test_node_outliving_its_graph_cannot_record(self):
        graph = ad.Graph()
        x = graph.leaf(np.ones(3))
        del graph
        np.testing.assert_array_equal(x.value, np.ones(3))
        with pytest.raises(ad.GraphError, match="released"):
            x.graph
        with pytest.raises(ad.GraphError):
            ad.exp(x)


class TestWorkflowsLeaveNoCycles:
    def test_train(self, trained, no_cyclic_garbage):
        _, _, ds = trained
        train(ds, cnn_343(), CONFIG)

    def test_mean_loss_accuracy_param_grad(self, trained, no_cyclic_garbage):
        model, params, ds = trained
        model.mean_loss(params, ds)
        model.accuracy(params, ds)
        model.param_grad(params, ds.example(0))

    def test_rank_grad_cos(self, trained, no_cyclic_garbage):
        model, params, ds = trained
        rank_training_set(model, params, ds, ds.example(0), "grad-cos")

    def test_gradient_store_is_freed_with_its_model(self, trained, no_cyclic_garbage):
        _, params, ds = trained
        model = Model(cnn_343())
        for q in (0, 1):  # the second ranking reads the stored matrix
            rank_training_set(model, params, ds, ds.example(q), "grad-cos")
        stored = weakref.ref(model.param_grads(params, ds))
        del model
        assert stored() is None

    def test_kept_relatif_norms_do_not_keep_the_gradient_store_alive(self, trained, no_cyclic_garbage):
        _, params, ds = trained
        model = Model(cnn_343())
        hessian = dense_hessian(model, params, ds.subset(range(8)))
        rank_training_set(model, params, ds, ds.example(0), "relatif", hessian=hessian)
        stored = weakref.ref(model.param_grads(params, ds))
        norms = weakref.ref(model._kept["norms"][2])  # kept next to G, in the model's store
        del model
        assert stored() is None and norms() is None

    def test_kept_solve_does_not_keep_the_query_gradient_alive(self, trained, no_cyclic_garbage):
        _, params, ds = trained
        model = Model(cnn_343())
        hessian = dense_hessian(model, params, ds.subset(range(8)))
        z = ds.example(0)
        rank_training_set(model, params, ds, z, "influence", hessian=hessian)
        stored = weakref.ref(query_gradient(model, params, z))
        u = weakref.ref(model._kept["solve"][2])
        assert not u().flags.writeable
        del model
        assert stored() is None and u() is None

    def test_the_store_keeps_no_source_alive(self, trained, no_cyclic_garbage):
        _, params, ds = trained
        model = Model(cnn_343())
        params = ParamVector(params.data, params.layout)
        dataset = ds.subset(range(8))
        hessian = dense_hessian(model, params, dataset)
        z = ds.example(0)
        rank_training_set(model, params, dataset, z, "relatif", hessian=hessian)
        assert sorted(model._kept) == ["grad_norms", "grads", "norms", "query", "solve"]
        sources = [weakref.ref(s) for s in (params, dataset, hessian, z)]
        del params, dataset, hessian, z
        assert all(source() is None for source in sources)
        assert sorted(model._kept) == ["grad_norms", "grads", "norms", "query", "solve"]  # entries stay until replaced

    def test_rank_relatif_with_dense_hessian(self, trained, no_cyclic_garbage):
        model, params, ds = trained
        hessian = dense_hessian(model, params, ds.subset(range(8)))
        lam = 1.0 + abs(float(eigvalsh(hessian.matrix, subset_by_index=[0, 0])[0]))
        rank_training_set(model, params, ds, ds.example(0), "relatif", hessian=hessian, lam=lam)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_smoothgrad(self, trained, workers, no_cyclic_garbage):
        model, params, ds = trained
        smoothgrad_saliency(
            model, params, ds.example(0), ds.example(1), sigma=0.05, samples=4, seed=0,
            workers=workers,
        )
