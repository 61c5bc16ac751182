"""Attribution-score checks.

Oracles used here: actually taking the proposed parameter step and measuring
the loss change (grad_effect), finite differences of parameter gradients
(dense Hessian), exact ridge leave-one-out refits (influence sign), and the
analytic large-damping limit (influence scale, relatif vs grad-cos order).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau

from tfa import autodiff as ad
from tfa import models, tda
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
from tfa.ridge import RidgeProblem, leave_one_out_delta, ridge_fit
from tfa.saliency import smoothgrad_saliency
from tfa.tda import (
    METHODS,
    AttributionRecord,
    DampedHessian,
    DegenerateGradientError,
    InsufficientDampingError,
    attribution_scores,
    dense_hessian,
    grad_cos,
    grad_effect,
    influence_function,
    query_gradient,
    rank_training_set,
    relatif,
)


def small_mlp(d=6, hidden=8, k=3):
    return ArchitectureSpec(
        layers=(Dense(d, hidden), Relu(), Dense(hidden, k)),
        input_shape=(d,),
        num_classes=k,
    )


def random_symmetric(rng, eigenvalues):
    """A symmetric matrix with the given spectrum in a random orthonormal basis."""
    Q, _ = np.linalg.qr(rng.standard_normal((len(eigenvalues),) * 2))
    H = (Q * np.asarray(eigenvalues)) @ Q.T
    return (H + H.T) / 2.0


def trained_blobs(seed=0, n_per=30, d=6, k=3, epochs=6):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 2.0, size=(k, d))
    X = np.vstack([rng.normal(centers[c], 0.8, size=(n_per, d)) for c in range(k)])
    y = np.repeat(np.arange(k), n_per)
    ds = Dataset(X, y)
    arch = small_mlp(d=d, k=k)
    params, _ = train(ds, arch, TrainConfig(lr=0.1, epochs=epochs, batch_size=16, seed=seed))
    return Model(arch), params, ds


class TestGradCos:
    def test_self_similarity_is_one(self):
        model, params, ds = trained_blobs()
        ex = ds.example(0)
        np.testing.assert_allclose(grad_cos(model, params, ex, ex), 1.0, rtol=1e-12)

    def test_symmetric_and_bounded(self):
        model, params, ds = trained_blobs()
        rng = np.random.default_rng(1)
        for _ in range(10):
            i, j = rng.integers(0, len(ds), size=2)
            a = grad_cos(model, params, ds.example(i), ds.example(j))
            b = grad_cos(model, params, ds.example(j), ds.example(i))
            np.testing.assert_allclose(a, b, rtol=1e-10)
            assert -1.0 <= a <= 1.0

    def test_degenerate_gradient_names_the_side(self):
        # drive one example's mse loss to zero so its gradient vanishes
        arch = ArchitectureSpec(layers=(Dense(2, 2),), input_shape=(2,), num_classes=2)
        model = Model(arch)
        params = init_params(arch, seed=2)
        flat = LabeledExample(np.array([0.5, -0.25]), 0)
        for _ in range(400):
            g = model.param_grad(params, flat, kind="mse")
            if np.linalg.norm(g) < 1e-13:
                break
            params = sgd_step(params, g, lr=0.4)
        other = LabeledExample(np.array([1.0, 1.0]), 1)
        with pytest.raises(DegenerateGradientError) as info:
            grad_cos(model, params, flat, other, kind="mse")
        assert info.value.side == "train"
        with pytest.raises(DegenerateGradientError) as info:
            grad_cos(model, params, other, flat, kind="mse")
        assert info.value.side == "test"


class TestGradEffect:
    def test_matches_actual_step_on_test_loss(self):
        model, params, ds = trained_blobs(seed=3)
        rng = np.random.default_rng(4)
        for epsilon in (1e-3, 1e-4):
            for _ in range(4):
                i, j = rng.integers(0, len(ds), size=2)
                z_train, z_test = ds.example(int(i)), ds.example(int(j))
                predicted = grad_effect(model, params, z_train, z_test, epsilon=epsilon)
                g = model.param_grad(params, z_train)
                stepped = sgd_step(params, g / np.linalg.norm(g) ** 2, lr=epsilon)
                actual = model.loss(stepped, z_test) - model.loss(params, z_test)
                assert abs(predicted - actual) < 0.01 * epsilon

    def test_training_on_itself_predicts_minus_epsilon(self):
        model, params, ds = trained_blobs(seed=5)
        z = ds.example(3)
        np.testing.assert_allclose(
            grad_effect(model, params, z, z, epsilon=1e-3), -1e-3, rtol=1e-10
        )

    def test_epsilon_must_be_positive(self):
        model, params, ds = trained_blobs(seed=5)
        with pytest.raises(ValueError):
            grad_effect(model, params, ds.example(0), ds.example(1), epsilon=0.0)


def fd_mlp():
    """A 27-parameter ReLU MLP with 12 random examples, at its init."""
    rng = np.random.default_rng(6)
    arch = ArchitectureSpec(
        layers=(Dense(3, 5), Relu(), Dense(5, 2)), input_shape=(3,), num_classes=2
    )
    model = Model(arch)
    params = init_params(arch, seed=7)
    ds = Dataset(rng.standard_normal((12, 3)), rng.integers(0, 2, size=12))
    return model, params, ds


def batch_grad(model, data, dataset, kind="cross-entropy"):
    """Gradient of the mean loss over the dataset at flat parameters data."""
    graph = ad.Graph()
    theta = graph.leaf(data)
    loss = model.record_batch_loss(theta, graph.constant(dataset.X), dataset.y, kind)
    return ad.grad(loss, theta)


def cnn_343():
    """The single-block CNN of acceptance criterion 4: 343 parameters."""
    return ArchitectureSpec(
        layers=(Conv2d(1, 4, 3), Relu(), MaxPool(2), Flatten(), Dense(100, 3)),
        input_shape=(1, 12, 12),
        num_classes=3,
    )


def fresh_graph_hessian(model, params, dataset, kind="cross-entropy"):
    """Oracle: every column records the forward pass and first backward anew."""
    p = model.num_params
    H = np.empty((p, p))
    for j in range(p):
        graph = ad.Graph()
        theta = graph.leaf(params.data)
        loss = model.record_batch_loss(theta, graph.constant(dataset.X), dataset.y, kind)
        (g,) = ad.backward(loss, [theta])
        H[:, j] = ad.grad(ad.take(g, np.array([j])), theta)
    return (H + H.T) / 2.0


class TestDenseHessian:
    def test_matches_finite_differences(self):
        model, params, ds = fd_mlp()
        H = dense_hessian(model, params, ds).matrix

        step = 1e-5
        p = model.num_params
        H_fd = np.empty((p, p))
        for j in range(p):
            bump = np.zeros(p)
            bump[j] = step
            plus = batch_grad(model, params.data + bump, ds)
            minus = batch_grad(model, params.data - bump, ds)
            H_fd[:, j] = (plus - minus) / (2.0 * step)
        np.testing.assert_allclose(H, (H_fd + H_fd.T) / 2.0, atol=5e-6)

    def test_symmetric_exactly(self):
        model, params, ds = trained_blobs(seed=8, n_per=8, epochs=2)
        H = dense_hessian(model, params, ds.subset(range(10))).matrix
        np.testing.assert_array_equal(H, H.T)

    def test_parameter_cap_enforced(self):
        arch = small_mlp()
        model = Model(arch)
        params = init_params(arch, seed=9)
        ds = Dataset(np.zeros((2, 6)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            dense_hessian(model, params, ds, max_params=10)

    def test_empty_dataset_rejected(self):
        model, params, ds = fd_mlp()
        with pytest.raises(ValueError, match="empty dataset"):
            dense_hessian(model, params, ds.subset(range(0)))

    def test_shared_graph_equals_fresh_graph_per_column_on_mlp(self, no_cyclic_garbage):
        model, params, ds = fd_mlp()
        expected = fresh_graph_hessian(model, params, ds)
        np.testing.assert_array_equal(dense_hessian(model, params, ds).matrix, expected)

    @pytest.mark.parametrize("kind", models.LOSS_KINDS)
    def test_shared_graph_equals_fresh_graph_per_column_on_cnn(self, kind, no_cyclic_garbage):
        rng = np.random.default_rng(22)
        ds = Dataset(rng.uniform(0.0, 1.0, size=(16, 1, 12, 12)), np.arange(16) % 3)
        params, _ = train(ds, cnn_343(), TrainConfig(lr=0.2, epochs=2, batch_size=8, seed=4))
        model = Model(cnn_343())
        assert model.num_params == 343
        expected = fresh_graph_hessian(model, params, ds, kind)
        np.testing.assert_array_equal(dense_hessian(model, params, ds, kind).matrix, expected)


class TestInfluence:
    def test_identity_hessian_reduces_to_inner_product(self):
        rng = np.random.default_rng(10)
        g_train, g_test = rng.standard_normal(5), rng.standard_normal(5)
        h = DampedHessian(np.eye(5))
        value = influence_function(h, g_train, g_test, lam=0.0)
        np.testing.assert_allclose(value, -float(g_test @ g_train), rtol=1e-12)

    def test_large_damping_limit(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((6, 6))
        h = DampedHessian(A @ A.T)
        g_train, g_test = rng.standard_normal(6), rng.standard_normal(6)
        lam = 1e8
        value = influence_function(h, g_train, g_test, lam=lam)
        np.testing.assert_allclose(value, -float(g_test @ g_train) / lam, rtol=1e-6)

    def test_insufficient_damping_reports_spectrum(self):
        H = np.diag([1.0, -0.5])
        h = DampedHessian(H)
        with pytest.raises(InsufficientDampingError) as info:
            h.solve(np.ones(2), lam=0.1)
        assert info.value.smallest_eigenvalue < 0.0
        # enough damping fixes it
        np.testing.assert_allclose(
            h.solve(np.ones(2), lam=1.0), [1.0 / 2.0, 1.0 / 0.5], rtol=1e-12
        )

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError):
            DampedHessian(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_default_damping_scale(self):
        h = DampedHessian(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(h.default_damping(), 1e-3 * 2.0, rtol=1e-12)

    def test_keeps_one_factor_for_the_last_damping(self, monkeypatch):
        calls = []
        original = tda.cho_factor

        def counted(matrix):
            calls.append(matrix)
            return original(matrix)

        monkeypatch.setattr(tda, "cho_factor", counted)
        h = DampedHessian(np.diag([1.0, 2.0, 3.0]))
        v = np.ones(3)
        counts = []
        for lam in (0.5, 0.5, 2.0, 0.5):
            np.testing.assert_allclose(h.solve(v, lam=lam), v / (np.array([1.0, 2.0, 3.0]) + lam), rtol=1e-12)
            counts.append(len(calls))
        assert counts == [1, 1, 2, 3]

    @settings(max_examples=60, deadline=None)
    @given(
        negative=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=4),
        positive=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_default_solve_damps_past_the_most_negative_eigenvalue(self, negative, positive, seed):
        rng = np.random.default_rng(seed)
        H = random_symmetric(rng, [-v for v in negative] + positive)
        p = H.shape[0]
        v = rng.standard_normal(p)
        h = DampedHessian(H)
        x = h.solve(v)
        assert np.array_equal(x, DampedHessian(H).solve(v, lam=h.damping()))
        smallest = np.linalg.eigvalsh(H)[0]
        assert np.linalg.eigvalsh(H + h.damping() * np.eye(p))[0] >= 0.099 * abs(smallest)

    @settings(max_examples=40, deadline=None)
    @given(spectrum=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8), seed=st.integers(0, 2**32 - 1))
    def test_positive_definite_damping_is_the_default(self, spectrum, seed):
        h = DampedHessian(random_symmetric(np.random.default_rng(seed), spectrum))
        assert h.damping() == h.default_damping()

    def test_sign_agrees_with_exact_ridge_refit(self):
        # ridge total objective ||Xw-y||^2 + lam||w||^2 has Hessian
        # 2(X'X + lam I); per-example gradients are 2 r_i x_i. First-order
        # theory: removal delta ~ -influence, so compare against -influence.
        rng = np.random.default_rng(12)
        agree = 0
        total = 0
        for _ in range(8):
            n, d = 20, 4
            X = rng.standard_normal((n, d))
            w_true = rng.standard_normal(d)
            y = X @ w_true + rng.normal(0.0, 0.3, size=n)
            problem = RidgeProblem(X, y, 1.0)
            w = ridge_fit(problem)
            x_test = rng.standard_normal(d)
            y_test = float(x_test @ w_true)
            h = DampedHessian(2.0 * (X.T @ X))
            r = X @ w - y
            r_test = float(x_test @ w - y_test)
            g_test = 2.0 * r_test * x_test
            scores = np.array(
                [influence_function(h, 2.0 * r[i] * X[i], g_test, lam=2.0) for i in range(n)]
            )
            for i in np.argsort(-np.abs(scores))[:5]:
                delta = leave_one_out_delta(problem, int(i), x_test, y_test)
                agree += int(np.sign(-scores[i]) == np.sign(delta))
                total += 1
        assert agree / total >= 0.9


class TestRelatif:
    def test_invariant_to_train_gradient_scale(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((5, 5))
        h = DampedHessian(A @ A.T)
        g_train, g_test = rng.standard_normal(5), rng.standard_normal(5)
        a = relatif(h, g_train, g_test, lam=0.5)
        b = relatif(h, 10.0 * g_train, g_test, lam=0.5)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_identity_hessian_form(self):
        rng = np.random.default_rng(14)
        g_train, g_test = rng.standard_normal(5), rng.standard_normal(5)
        h = DampedHessian(np.eye(5))
        value = relatif(h, g_train, g_test, lam=0.0)
        np.testing.assert_allclose(
            value, -float(g_test @ g_train) / np.linalg.norm(g_train), rtol=1e-12
        )

    def test_large_damping_ranking_matches_grad_cos(self):
        model, params, ds = trained_blobs(seed=15, n_per=10, epochs=3)
        pool = ds.subset(range(24))
        z_test = ds.example(len(ds) - 1)
        h = dense_hessian(model, params, pool)
        by_cos = rank_training_set(model, params, pool, z_test, method="grad-cos")
        order_cos = [r.train_index for r in by_cos.records]
        # at lam = 1e12 ||(H + lam I)^-1 g|| is below DEGENERATE_NORM although
        # every g is not; RelatIF is scale-invariant and must not skip or fail
        for lam in (1e6 * float(np.abs(h.matrix).max()), 1e12):
            by_rel = rank_training_set(
                model, params, pool, z_test, method="relatif", hessian=h, lam=lam
            )
            order_rel = [r.train_index for r in by_rel.records]
            assert order_cos == order_rel
            tau = kendalltau(order_cos, order_rel).statistic
            assert tau == 1.0


class TestRanking:
    def test_sorted_descending_with_index_ties(self):
        records = [
            AttributionRecord(2, 0, "grad-cos", 0.5),
            AttributionRecord(0, 0, "grad-cos", 0.5),
            AttributionRecord(1, 0, "grad-cos", 0.9),
        ]
        records.sort(key=lambda r: (-r.score, r.train_index))
        assert [r.train_index for r in records] == [1, 0, 2]

    def test_rank_outputs_cover_dataset_and_slices_work(self):
        model, params, ds = trained_blobs(seed=16, n_per=8, epochs=3)
        result = rank_training_set(model, params, ds, ds.example(0))
        assert len(result.records) == len(ds)
        scores = [r.score for r in result.records]
        assert scores == sorted(scores, reverse=True)
        top = result.helpful(3)
        bottom = result.harmful(3)
        assert len(top) == 3 and len(bottom) == 3
        assert top[0].score == max(scores)
        assert bottom[0].score == min(scores)
        # the example itself must be the top helpful match
        assert top[0].train_index == 0

    @pytest.mark.parametrize("method", METHODS)
    def test_grad_effect_ranking_matches_grad_alignment(self, method):
        model, params, ds = trained_blobs(seed=17, n_per=8, epochs=3)
        z_test = ds.example(5)
        h = dense_hessian(model, params, ds)
        lam = h.default_damping() + max(0.0, -1.1 * float(np.linalg.eigvalsh(h.matrix)[0]))
        result = rank_training_set(model, params, ds, z_test, method, hessian=h, lam=lam)
        g_test = model.param_grad(params, z_test)
        grads = [model.param_grad(params, ds.example(i)) for i in range(len(ds))]
        if method == "grad-effect":
            raw = [float(g_test @ g) / np.linalg.norm(g) ** 2 for g in grads]
            expected = sorted(range(len(ds)), key=lambda i: (-raw[i], i))
            assert [r.train_index for r in result.records] == expected
        # the oriented score equals the pair scorer, negated where that
        # scorer reports a loss change
        pair = {
            "grad-cos": lambda i: grad_cos(model, params, ds.example(i), z_test),
            "grad-effect": lambda i: -grad_effect(model, params, ds.example(i), z_test),
            "influence": lambda i: -influence_function(h, grads[i], g_test, lam),
            "relatif": lambda i: -relatif(h, grads[i], g_test, lam),
        }[method]
        assert len(result.records) == len(ds)
        for record in result.records:
            np.testing.assert_allclose(record.score, pair(record.train_index), rtol=1e-10)

    def test_degenerate_examples_skipped_with_warning(self):
        arch = ArchitectureSpec(layers=(Dense(2, 2),), input_shape=(2,), num_classes=2)
        model = Model(arch)
        params = init_params(arch, seed=18)
        flat = LabeledExample(np.array([0.5, -0.25]), 0)
        for _ in range(400):
            g = model.param_grad(params, flat, kind="mse")
            if np.linalg.norm(g) < 1e-13:
                break
            params = sgd_step(params, g, lr=0.4)
        ds = Dataset(
            np.vstack([flat.x, [1.0, 1.0], [-1.0, 0.5]]), np.array([0, 1, 0])
        )
        with pytest.warns(RuntimeWarning, match="degenerate"):
            result = rank_training_set(
                model, params, ds, LabeledExample(np.array([1.0, 1.0]), 1), kind="mse"
            )
        assert result.skipped == [0]
        assert len(result.records) == 2

    def test_method_validation(self):
        model, params, ds = trained_blobs(seed=19, n_per=4, epochs=1)
        with pytest.raises(ValueError):
            rank_training_set(model, params, ds, ds.example(0), method="tracin")
        with pytest.raises(ValueError):
            rank_training_set(model, params, ds, ds.example(0), method="influence")
        for epsilon in (0.0, -1e-3):
            with pytest.raises(ValueError):
                rank_training_set(
                    model, params, ds, ds.example(0), method="grad-effect", epsilon=epsilon
                )


def count_param_grads(monkeypatch):
    """Record the example of every Model.param_grad call from here on."""
    examples = []
    original = Model.param_grad

    def counted(self, params, example, kind="cross-entropy"):
        examples.append(example)
        return original(self, params, example, kind)

    monkeypatch.setattr(Model, "param_grad", counted)
    return examples


class TestGradientStore:
    def test_influence_then_relatif_computes_training_gradients_once(self, monkeypatch):
        model, params, ds = trained_blobs(seed=20, n_per=5, epochs=2)
        h = dense_hessian(model, params, ds)
        lam = h.default_damping() + max(0.0, -1.1 * float(np.linalg.eigvalsh(h.matrix)[0]))
        calls = count_param_grads(monkeypatch)
        for method in ("influence", "relatif"):
            rank_training_set(model, params, ds, ds.example(0), method, hessian=h, lam=lam)
        assert len(calls) == len(ds) + 1  # N training gradients and one query

    def test_grad_cos_for_two_test_images_computes_training_gradients_once(self, monkeypatch):
        model, params, ds = trained_blobs(seed=21, n_per=5, epochs=2)
        fresh = Model(model.arch)
        expected = [rank_training_set(fresh, params, ds, ds.example(q)) for q in (1, 2)]
        calls = count_param_grads(monkeypatch)
        got = [rank_training_set(model, params, ds, ds.example(q)) for q in (1, 2)]
        assert len(calls) == len(ds) + 2
        assert got == expected

    def test_saliency_after_ranking_computes_no_gradient_again(self, monkeypatch):
        model, params, ds = trained_blobs(seed=22, n_per=5, epochs=2)
        z_test = ds.example(0)
        top = rank_training_set(model, params, ds, z_test).helpful(1)[0]
        calls = count_param_grads(monkeypatch)
        smoothgrad_saliency(
            model, params, ds.example(top.train_index), z_test, sigma=0.05, samples=2, seed=0
        )
        assert calls == []

    @pytest.mark.parametrize("change", ["params", "x", "y", "kind"])
    def test_query_gradient_is_kept_until_an_input_changes(self, change):
        model, params, ds = trained_blobs(seed=23, n_per=5, epochs=2)
        z, kind = ds.example(0), "cross-entropy"
        g = query_gradient(model, params, z, kind)
        assert not g.flags.writeable
        np.testing.assert_array_equal(g, model.param_grad(params, z, kind))
        assert query_gradient(model, params, z, kind) is g
        if change == "params":
            params.data += 0.05
        elif change == "x":
            z.x[0] += 0.1
        elif change == "y":
            z = LabeledExample(z.x, (z.y + 1) % 3)
        else:
            kind = "mse"
        after = query_gradient(model, params, z, kind)
        assert after is not g
        assert not np.array_equal(after, g)
        np.testing.assert_array_equal(after, model.param_grad(params, z, kind))

    def test_three_queries_by_influence_and_relatif_make_one_training_solve(self, monkeypatch):
        model, params, ds = trained_blobs(seed=24, n_per=5, epochs=2)
        h = dense_hessian(model, params, ds)
        columns = []
        original = tda.cho_solve

        def counted(factor, b, **kwargs):
            columns.append(1 if np.ndim(b) == 1 else np.shape(b)[1])
            return original(factor, b, **kwargs)

        monkeypatch.setattr(tda, "cho_solve", counted)
        for q in (0, 1, 2):
            for method in ("influence", "relatif"):
                rank_training_set(model, params, ds, ds.example(q), method, hessian=h)
        assert sorted(columns) == [1] * 6 + [len(ds)]

    def test_relatif_norms_are_rebuilt_for_new_gradients_and_damping(self):
        model, params, ds = trained_blobs(seed=25, n_per=5, epochs=2)
        h = dense_hessian(model, params, ds)
        lam = h.damping()

        def ranked(hessian, lam):
            return rank_training_set(
                model, params, ds, ds.example(0), "relatif", hessian=hessian, lam=lam
            ).records

        first = ranked(h, lam)
        params.data += 0.05  # in place: the gradient store rebuilds G
        rebuilt = ranked(h, lam)
        assert rebuilt != first
        assert rebuilt == ranked(DampedHessian(h.matrix), lam)
        assert ranked(h, 3.0 * lam) == ranked(DampedHessian(h.matrix), 3.0 * lam)


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        p=st.integers(1, 12),
        method=st.sampled_from(METHODS),
    )
    def test_rows_score_independently(self, seed, n, p, method):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((p, p))
        h = DampedHessian(A @ A.T + np.eye(p))  # SPD, smallest eigenvalue at least 1
        G, g_test = rng.standard_normal((n, p)), rng.standard_normal(p)
        kw = dict(epsilon=1e-3, hessian=h, lam=0.1)
        together = attribution_scores(G, g_test, method, **kw)
        alone = np.array(
            [attribution_scores(G[i : i + 1], g_test, method, **kw)[0] for i in range(n)]
        )
        # a score that cancels to near zero carries rounding relative to the
        # Cauchy-Schwarz bound on |score|, not to itself
        V = np.linalg.solve(h.matrix + 0.1 * np.eye(p), G.T).T
        bound = {
            "grad-cos": np.ones(n),
            "grad-effect": 1e-3 * np.linalg.norm(g_test) / np.linalg.norm(G, axis=1),
            "influence": np.linalg.norm(V, axis=1) * np.linalg.norm(g_test),
            "relatif": np.full(n, np.linalg.norm(g_test)),
        }[method]
        assert np.all(np.abs(together - alone) <= 1e-12 * (np.abs(alone) + bound))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        p=st.integers(1, 12),
        method=st.sampled_from(("influence", "relatif")),
    )
    def test_influence_and_relatif_match_an_explicit_solve(self, seed, n, p, method):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((p, p))
        h = DampedHessian(A @ A.T + np.eye(p))  # SPD, smallest eigenvalue at least 1
        G, g_test = rng.standard_normal((n, p)), rng.standard_normal(p)
        got = attribution_scores(G, g_test, method, hessian=h, lam=0.1)
        V = np.linalg.solve(h.matrix + 0.1 * np.eye(p), G.T).T
        V_norms = np.linalg.norm(V, axis=1)
        expected = V @ g_test
        bound = V_norms * np.linalg.norm(g_test)  # Cauchy-Schwarz bound on |score|
        if method == "relatif":
            expected, bound = expected / V_norms, bound / V_norms
        assert np.all(np.abs(got - expected) <= 1e-12 * (np.abs(expected) + bound))
