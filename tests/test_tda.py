"""Attribution-score checks.

Oracles used here: actually taking the proposed parameter step and measuring
the loss change (grad_effect), finite differences of parameter gradients
(dense Hessian), exact ridge leave-one-out refits (influence sign), and the
analytic large-damping limit (influence scale, relatif vs grad-cos order).
"""

import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau

import tfa
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
    DampedHessian,
    DegenerateGradientError,
    InsufficientDampingError,
    attribution_scores,
    dense_hessian,
    grad_cos,
    grad_effect,
    query_gradient,
    rank_training_set,
)


def small_mlp(d=6, hidden=8, k=3):
    return ArchitectureSpec(
        layers=(Dense(d, hidden), Relu(), Dense(hidden, k)),
        input_shape=(d,),
        num_classes=k,
    )


def saturated_dense():
    """Dense(2, 2) whose logits are (40, 0) at every input, and a label-0 example
    whose cross-entropy gradient (norm 4.9e-18) is below DEGENERATE_NORM."""
    model = Model(ArchitectureSpec(layers=(Dense(2, 2),), input_shape=(2,), num_classes=2))
    params = models.ParamVector(np.array([0.0, 0.0, 0.0, 0.0, 40.0, 0.0]), model.layout)
    return model, params, LabeledExample(np.array([0.5, -0.25]), 0)


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
        model, params, flat = saturated_dense()
        other = LabeledExample(np.array([1.0, 1.0]), 1)
        with pytest.raises(DegenerateGradientError) as info:
            grad_cos(model, params, flat, other)
        assert info.value.side == "train"
        with pytest.raises(DegenerateGradientError) as info:
            grad_cos(model, params, other, flat)
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

    def test_epsilon_must_be_positive(self, monkeypatch):
        model, params, ds = trained_blobs(seed=5)
        calls = count_param_grads(monkeypatch)
        for epsilon in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="epsilon must be positive"):
                grad_effect(model, params, ds.example(0), ds.example(1), epsilon=epsilon)
        assert calls == []  # checked before either gradient


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


def fresh_graph_columns(model, params, dataset):
    """Raw Hessian columns, each from a forward pass and first backward recorded
    anew and a second sweep seeded at the flat gradient, back to theta."""
    p = model.num_params
    raw = np.empty((p, p))
    for j in range(p):
        graph = ad.Graph()
        theta = graph.leaf(params.data)
        loss = model.record_batch_loss(theta, graph.constant(dataset.X), dataset.y)
        (g,) = ad.backward(loss, [theta])
        raw[:, j] = ad.grad(ad.take(g, np.array([j])), theta)
    return raw


def slice_bounds(model):
    return [(s.offset, s.offset + int(np.prod(s.shape))) for s in model.layout]


def mirrored(raw, model):
    """Oracle assembly: each slice's columns keep their rows of that slice and
    later ones, the rows of earlier slices are mirrored from the columns of
    those slices, and each diagonal block is averaged with its transpose."""
    H = raw.copy()
    for a, b in slice_bounds(model):
        H[:a, a:b] = H[a:b, :a].T
        block = H[a:b, a:b]
        H[a:b, a:b] = (block + block.T) / 2.0
    return H


def fresh_graph_hessian(model, params, dataset):
    """Oracle: fresh-graph columns, assembled by the mirror rule."""
    return mirrored(fresh_graph_columns(model, params, dataset), model)


@pytest.fixture(scope="module")
def two_conv_blocks():
    """tiny_cnn at 12 px, slices of two conv layers and the head, with its raw columns."""
    arch = models.tiny_cnn((1, 12, 12), 3)
    rng = np.random.default_rng(23)
    ds = Dataset(rng.uniform(0.0, 1.0, size=(4, 1, 12, 12)), np.array([0, 1, 2, 1]))
    model = Model(arch)
    params = init_params(arch, seed=8)
    return model, params, ds, fresh_graph_columns(model, params, ds)


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
        arch = small_mlp(d=2000, hidden=10)
        model = Model(arch)
        assert model.num_params > tda.DENSE_HESSIAN_MAX_PARAMS
        params = init_params(arch, seed=9)
        ds = Dataset(np.zeros((2, 2000)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError, match="cap"):
            dense_hessian(model, params, ds)

    def test_empty_dataset_rejected(self):
        model, params, ds = fd_mlp()
        with pytest.raises(ValueError, match="empty dataset"):
            dense_hessian(model, params, ds.subset(range(0)))

    def test_shared_graph_equals_fresh_graph_per_column_on_mlp(self, no_cyclic_garbage):
        model, params, ds = fd_mlp()
        expected = fresh_graph_hessian(model, params, ds)
        assert dense_hessian(model, params, ds).matrix.tobytes() == expected.tobytes()

    def test_shared_graph_equals_fresh_graph_per_column_on_cnn(self, no_cyclic_garbage):
        rng = np.random.default_rng(22)
        ds = Dataset(rng.uniform(0.0, 1.0, size=(16, 1, 12, 12)), np.arange(16) % 3)
        params, _ = train(ds, cnn_343(), TrainConfig(lr=0.2, epochs=2, batch_size=8, seed=4))
        model = Model(cnn_343())
        assert model.num_params == 343
        expected = fresh_graph_hessian(model, params, ds)
        assert dense_hessian(model, params, ds).matrix.tobytes() == expected.tobytes()

    def test_shared_graph_equals_fresh_graph_per_column_on_two_conv_blocks(self, two_conv_blocks, no_cyclic_garbage):
        model, params, ds, raw = two_conv_blocks
        assert dense_hessian(model, params, ds).matrix.tobytes() == mirrored(raw, model).tobytes()

    def test_shared_graph_equals_fresh_graph_per_column_with_signed_zero_parameters(self):
        # some of this model's column entries come out of their slice's sweep
        # as -0.0, where a sweep back to theta scatters them into 0.0
        arch = ArchitectureSpec((Dense(2, 2), Relu(), Dense(2, 2)), input_shape=(2,), num_classes=2)
        model = Model(arch)
        data = np.array([0.0, -0.0, -0.19, -0.34, -0.23, 0.6, -0.0, 0.97, -0.0, -0.19, 0.89, 0.0])
        params = models.ParamVector(data, model.layout)
        ds = Dataset(np.array([[1.36, -0.71]]), np.array([1]))
        expected = fresh_graph_hessian(model, params, ds)
        assert np.signbit(expected[expected == 0.0]).sum() == 0
        assert dense_hessian(model, params, ds).matrix.tobytes() == expected.tobytes()

    def test_mirroring_moves_off_diagonal_blocks_at_roundoff_only(self, two_conv_blocks):
        model, params, ds, raw = two_conv_blocks
        H = dense_hessian(model, params, ds).matrix
        symmetrized = (raw + raw.T) / 2.0  # every column swept back to theta, then averaged
        assert np.abs(H - symmetrized).max() <= 1e-12 * np.abs(symmetrized).max()
        for a, b in slice_bounds(model):
            assert H[a:b, a:b].tobytes() == symmetrized[a:b, a:b].tobytes()

    def test_each_column_sweeps_back_to_its_own_and_later_slices_only(self, two_conv_blocks, monkeypatch):
        model, params, ds, _ = two_conv_blocks
        calls, backward = [], ad.backward

        def spy(root, wrt):
            calls.append((root, list(wrt), backward(root, wrt)))
            return calls[-1][2]

        monkeypatch.setattr(ad, "backward", spy)
        dense_hessian(model, params, ds)
        (_, reads, slice_grads), columns = calls[0], iter(calls[1:])
        assert len(reads) == len(model.layout) == 6 and len(calls) == 1 + model.num_params
        for s, (a, b) in enumerate(slice_bounds(model)):
            for k in range(b - a):  # column a + k: entry k of slice s's gradient
                root, targets, _ = next(columns)
                assert root.kind == "take" and root.parents[0] is slice_grads[s] and root.meta.tolist() == [k]
                assert len(targets) == len(reads) - s and all(t is r for t, r in zip(targets, reads[s:]))

    def test_column_sweeps_through_relu_reuse_its_recorded_mask(self, monkeypatch):
        arch = cnn_343()
        model, params = Model(arch), init_params(arch, seed=8)
        ds = Dataset(np.random.default_rng(5).uniform(0.0, 1.0, size=(3, 1, 12, 12)), np.array([0, 1, 2]))
        sweeps, truncate = [], ad.Graph.truncate

        def spy(graph, length):  # each column's sweep is truncated away after it
            swept = graph.nodes[length:]
            sweeps.append(({n.kind for n in swept}, any(p.kind == "relu_mask" for n in swept for p in n.parents)))
            truncate(graph, length)

        monkeypatch.setattr(ad.Graph, "truncate", spy)
        dense_hessian(model, params, ds)
        assert len(sweeps) == model.num_params
        assert sum(through_relu for _, through_relu in sweeps) == 40  # each conv column multiplies by a mask again
        assert not any("relu_mask" in kinds for kinds, _ in sweeps)

    @pytest.mark.parametrize("extra_read", ["mul", "second take"])
    def test_forward_reading_theta_outside_one_take_per_slice_is_rejected(self, extra_read, monkeypatch):
        model, params, ds = fd_mlp()
        param = Model._param

        def reads_twice(self, theta, layer, name):
            if (layer, name) != (0, "bias"):
                return param(self, theta, layer, name)
            if extra_read == "mul":
                return param(self, ad.mul(theta, 1.0), layer, name)
            return ad.add(param(self, theta, layer, name), param(self, theta, layer, name))

        monkeypatch.setattr(Model, "_param", reads_twice)
        with pytest.raises(ValueError, match="one take per parameter slice"):
            dense_hessian(model, params, ds)

    @settings(max_examples=25, deadline=None)
    @given(
        conv=st.booleans(),
        width=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_raw_columns_are_symmetric_to_roundoff(self, conv, width, seed):
        rng = np.random.default_rng(seed)
        if conv:  # 7x7 -> conv 5x5 -> pool 2x2
            layers = (Conv2d(1, width, 3), Relu(), MaxPool(2), Flatten(), Dense(4 * width, 3))
            arch = ArchitectureSpec(layers, input_shape=(1, 7, 7), num_classes=3)
            X = rng.uniform(0.0, 1.0, size=(4, 1, 7, 7))
        else:
            arch = ArchitectureSpec((Dense(3, width), Relu(), Dense(width, 3)), input_shape=(3,), num_classes=3)
            X = rng.standard_normal((4, 3))
        ds = Dataset(X, rng.integers(0, 3, size=4))
        model = Model(arch)
        params = models.ParamVector(rng.normal(0.0, 0.5, size=model.num_params), model.layout)
        graph = ad.Graph()
        model.record_batch_loss(graph.constant(params.data), graph.constant(ds.X), ds.y)
        assume(ad.kink_margin(graph) > 1e-4)

        raw = fresh_graph_columns(model, params, ds)
        H = dense_hessian(model, params, ds).matrix
        np.testing.assert_array_equal(H, mirrored(raw, model))
        assert np.abs(raw - raw.T).max() <= 1e-12 * np.abs(raw).max()


class TestScipyImport:
    def test_scipy_loads_at_the_first_factorization_not_at_import(self):
        """Importing tfa loads no scipy, and the first factorization refuses an
        indefinite H + lam I and solves a diagonal one exactly. The name dates from
        when that factorization loaded scipy's Cholesky; nothing loads scipy now
        (test_the_ridge_oracle_never_loads_scipy)."""
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import tfa, tfa.cli\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n"
            "try:\n"
            "    tfa.DampedHessian(np.diag([-1.0, 2.0])).solve(np.ones(2), lam=0.5)\n"
            "    raise SystemExit('an indefinite H + lam I was solved')\n"
            "except tfa.tda.InsufficientDampingError:\n"
            "    pass\n"
            "print(tfa.DampedHessian(np.diag([1.0, 2.0, 3.0])).solve(np.ones(3), lam=1.0).tolist())\n"
        )
        src = str(Path(tfa.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        np.testing.assert_allclose(json.loads(proc.stdout), [1 / 2, 1 / 3, 1 / 4], rtol=1e-15)

    def test_the_ridge_oracle_never_loads_scipy(self, tmp_path):
        """No library call loads scipy: import, the ridge oracles, and the Hessian's
        smallest eigenvalue, solves, response norms and a RelatIF ranking."""
        code = (
            "import json, sys\n"
            "import numpy as np\n"
            "import tfa, tfa.cli\n"
            "from tfa.ridge import ToySetup, feature_contributions, leave_one_out_delta, representer_coefficients, ridge_fit\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n"
            f"assert tfa.cli.main(['toy-ridge', '--out', {str(tmp_path)!r}]) == 0\n"
            "setup = ToySetup()\n"
            "problem, x_test = setup.problem(), setup.test_point(1.0)\n"
            "ridge_fit(problem), representer_coefficients(problem, x_test), feature_contributions(problem, x_test)\n"
            "leave_one_out_delta(problem, 4, x_test, 1.0)\n"
            "h = tfa.DampedHessian(np.diag([1.0, 2.0, 3.0]))\n"
            "solved = h.solve(np.ones(3), lam=1.0).tolist()\n"
            "norms = h.response_norms(np.eye(3), lam=1.0).tolist()\n"
            "arch = tfa.ArchitectureSpec((tfa.Dense(2, 4), tfa.Relu(), tfa.Dense(4, 3)), input_shape=(2,), num_classes=3)\n"
            "model, params = tfa.Model(arch), tfa.init_params(arch, 0)\n"
            "ds = tfa.Dataset(np.random.default_rng(0).standard_normal((6, 2)), np.arange(6) % 3)\n"
            "hessian = tfa.dense_hessian(model, params, ds)\n"
            "ranking = tfa.rank_training_set(model, params, ds, ds.example(0), 'relatif', hessian=hessian)\n"
            "assert len(ranking.records) + len(ranking.skipped) == 6\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n"
            "print(json.dumps({'solved': solved, 'lambda_min': h.lambda_min, 'norms': norms}))\n"
        )
        src = str(Path(tfa.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "tables" / "toy_ridge.csv").exists()
        out = json.loads(proc.stdout.splitlines()[-1])  # after the toy-ridge report
        np.testing.assert_allclose(out["solved"], [1 / 2, 1 / 3, 1 / 4], rtol=1e-15)
        np.testing.assert_allclose(out["norms"], [1 / 2, 1 / 3, 1 / 4], rtol=1e-15)
        assert out["lambda_min"] == 1.0


class TestInfluence:
    def test_identity_hessian_reduces_to_inner_product(self):
        rng = np.random.default_rng(10)
        g_train, g_test = rng.standard_normal(5), rng.standard_normal(5)
        h = DampedHessian(np.eye(5))
        (value,) = attribution_scores(g_train[None, :], g_test, "influence", hessian=h, lam=0.0)
        np.testing.assert_allclose(value, float(g_test @ g_train), rtol=1e-12)

    def test_large_damping_limit(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((6, 6))
        h = DampedHessian(A @ A.T)
        g_train, g_test = rng.standard_normal(6), rng.standard_normal(6)
        lam = 1e8
        (value,) = attribution_scores(g_train[None, :], g_test, "influence", hessian=h, lam=lam)
        np.testing.assert_allclose(value, float(g_test @ g_train) / lam, rtol=1e-6)

    def test_insufficient_damping_reports_spectrum(self):
        h = DampedHessian(np.diag([1.0, -0.5]))
        # short of the smallest eigenvalue, and exactly at it: H + lam I is singular
        for lam, smallest in ((0.1, -0.4), (0.5, 0.0)):
            with pytest.raises(InsufficientDampingError) as info:
                h.solve(np.ones(2), lam=lam)
            assert info.value.lam == lam
            np.testing.assert_allclose(info.value.smallest_eigenvalue, smallest, rtol=1e-12)
        # enough damping fixes it
        np.testing.assert_allclose(
            h.solve(np.ones(2), lam=1.0), [1.0 / 2.0, 1.0 / 0.5], rtol=1e-12
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_right_hand_side_rejected(self, bad):
        h = DampedHessian(np.diag([1.0, 2.0]))
        for rhs in (np.array([1.0, bad]), np.array([[1.0, 2.0], [bad, 0.0]])):
            with pytest.raises(ValueError, match="infs or NaNs"):
                h.solve(rhs, lam=1.0)
            with pytest.raises(ValueError, match="infs or NaNs"):
                h.response_norms(rhs, lam=1.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_non_finite_damping_rejected(self, lam):
        h = DampedHessian(np.diag([1.0, 2.0]))
        for call in (h.solve, h.response_norms):
            with pytest.raises(ValueError, match="damping must be finite"):
                call(np.ones((2, 2)), lam)

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError):
            DampedHessian(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        # each would pass the asymmetry check: nan > 1e-8 is False, and inf - inf is nan
        for i, j in ((1, 1), (0, 1)):  # on the diagonal, and a symmetric pair off it
            H = np.diag([1.0, 2.0])
            H[i, j] = H[j, i] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                DampedHessian(H)

    def test_asymmetry_past_the_first_row_band_rejected(self):
        H = np.eye(150)
        H[140, 3] = 1e-6
        with pytest.raises(ValueError, match="asymmetry 1.000e-06"):
            DampedHessian(H)

    def test_default_damping_scale(self):
        h = DampedHessian(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(h.default_damping(), 1e-3 * 2.0, rtol=1e-12)

    def test_one_eigendecomposition_serves_every_damping(self, monkeypatch):
        calls = []
        original = np.linalg.eigh

        def counted(matrix):
            calls.append(matrix)
            return original(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        h = DampedHessian(np.diag([1.0, 2.0, 3.0]))
        v = np.ones(3)
        counts = []
        for lam in (0.5, 0.5, 2.0, 0.5):
            np.testing.assert_allclose(h.solve(v, lam=lam), v / (np.array([1.0, 2.0, 3.0]) + lam), rtol=1e-12)
            counts.append(len(calls))
        assert counts == [1, 1, 1, 1]

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
        # theory: the removal delta (positive = the example helped) has the
        # sign of the oriented influence score.
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
            scores = attribution_scores(2.0 * r[:, None] * X, g_test, "influence", hessian=h, lam=2.0)
            for i in np.argsort(-np.abs(scores))[:5]:
                delta = leave_one_out_delta(problem, int(i), x_test, y_test)
                agree += int(np.sign(scores[i]) == np.sign(delta))
                total += 1
        assert agree / total >= 0.9


class TestDampedHessianMemory:
    def test_symmetry_check_and_solve_allocate_at_most_a_quarter_matrix_more(self):
        """The symmetry check allocates at most a quarter matrix; once H is
        decomposed, a solve at a new damping allocates only vectors."""
        p = 1500
        rng = np.random.default_rng(30)
        A = rng.standard_normal((p, p))
        H = A @ A.T / p + np.eye(p)
        v = rng.standard_normal(p)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            h = DampedHessian(H)
            assert tracemalloc.get_traced_memory()[1] - base <= 0.25 * p * p * 8
            h.solve(v, 0.5)  # the one eigendecomposition
            w, Q = np.linalg.eigh(H)
            for lam in (0.7, -0.3):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                x = h.solve(v, lam)
                assert tracemalloc.get_traced_memory()[1] - base <= 8 * p * 8
                assert x.tobytes() == (Q @ (Q.T @ v / (w + lam))).tobytes()
        finally:
            tracemalloc.stop()


class TestRelatif:
    def test_invariant_to_train_gradient_scale(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((5, 5))
        h = DampedHessian(A @ A.T)
        g_train, g_test = rng.standard_normal(5), rng.standard_normal(5)
        a, b = attribution_scores(np.stack([g_train, 10.0 * g_train]), g_test, "relatif", hessian=h, lam=0.5)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_identity_hessian_form(self):
        rng = np.random.default_rng(14)
        g_train, g_test = rng.standard_normal(5), rng.standard_normal(5)
        h = DampedHessian(np.eye(5))
        (value,) = attribution_scores(g_train[None, :], g_test, "relatif", hessian=h, lam=0.0)
        np.testing.assert_allclose(
            value, float(g_test @ g_train) / np.linalg.norm(g_train), rtol=1e-12
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
        """Repeated rows score equal, and every method orders its records as a sort on (-score, index) does."""
        model, params, ds = trained_blobs(seed=28, n_per=4, epochs=2)
        rows = np.random.default_rng(0).permutation(np.r_[np.arange(len(ds)), [3, 3, 7, 0]])
        h = dense_hessian(model, params, ds)
        for method in METHODS:
            records = rank_training_set(model, params, ds.subset(rows), ds.example(5), method, hessian=h).records
            assert records == sorted(records, key=lambda r: (-r.score, r.train_index))
            scores = [r.score for r in records]
            assert len(set(scores)) == len(ds)  # each repeat ties with its original

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
        assert result.helpful(0) == result.harmful(0) == []
        assert result.harmful(len(ds) + 1) == result.records[::-1]
        for r in (-1, -len(ds)):  # a negative r would slice from the other end
            for tail in (result.helpful, result.harmful):
                with pytest.raises(ValueError, match="r must be non-negative"):
                    tail(r)

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
        # scorer reports a loss change; influence and RelatIF are solved
        # here directly, with np.linalg.solve on H + lam I
        damped = h.matrix + lam * np.eye(model.num_params)
        u = np.linalg.solve(damped, g_test)
        pair = {
            "grad-cos": lambda i: grad_cos(model, params, ds.example(i), z_test),
            "grad-effect": lambda i: -grad_effect(model, params, ds.example(i), z_test),
            "influence": lambda i: float(grads[i] @ u),
            "relatif": lambda i: float(grads[i] @ u) / np.linalg.norm(np.linalg.solve(damped, grads[i])),
        }[method]
        assert len(result.records) == len(ds)
        for record in result.records:
            np.testing.assert_allclose(record.score, pair(record.train_index), rtol=1e-10)

    def test_degenerate_examples_skipped_with_warning(self):
        model, params, flat = saturated_dense()
        ds = Dataset(
            np.vstack([flat.x, [1.0, 1.0], [-1.0, 0.5]]), np.array([0, 1, 1])
        )
        with pytest.warns(RuntimeWarning, match="degenerate"):
            result = rank_training_set(model, params, ds, LabeledExample(np.array([1.0, 1.0]), 1))
        assert result.skipped == [0]
        assert len(result.records) == 2

    def test_method_validation(self):
        model, params, ds = trained_blobs(seed=19, n_per=4, epochs=1)
        with pytest.raises(ValueError):
            rank_training_set(model, params, ds, ds.example(0), method="tracin")
        with pytest.raises(ValueError):
            rank_training_set(model, params, ds, ds.example(0), method="influence")
        for epsilon in (0.0, -1e-3, np.nan, np.inf):
            with pytest.raises(ValueError):
                rank_training_set(
                    model, params, ds, ds.example(0), method="grad-effect", epsilon=epsilon
                )

    @pytest.mark.parametrize(
        "method, epsilon, message",
        [
            ("bogus", 1e-3, "method must be one of"),
            ("influence", 1e-3, "influence needs a precomputed dense Hessian"),
            ("relatif", 1e-3, "relatif needs a precomputed dense Hessian"),
            ("grad-effect", 0.0, "epsilon must be positive"),
            ("grad-effect", np.nan, "epsilon must be positive"),
            ("grad-effect", np.inf, "epsilon must be positive"),
        ],
    )
    def test_arguments_are_checked_before_any_gradient(self, monkeypatch, method, epsilon, message):
        model, params, flat = saturated_dense()
        ds = Dataset(np.vstack([flat.x, flat.x]), [0, 0])  # two degenerate training gradients
        calls = count_param_grads(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                rank_training_set(model, params, ds, LabeledExample(np.array([1.0, 1.0]), 1), method, epsilon=epsilon)
        assert calls == []

    def test_a_degenerate_test_gradient_is_reported_before_training_rows_are_skipped(self, monkeypatch):
        model, params, flat = saturated_dense()
        ds = Dataset(np.vstack([flat.x, [1.0, 1.0]]), [0, 1])
        calls = count_param_grads(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateGradientError) as raised:
                rank_training_set(model, params, ds, flat)
        assert raised.value.side == "test"
        assert calls == [flat]  # the test gradient only


def count_param_grads(monkeypatch):
    """Record the example of every Model.param_grad call from here on."""
    examples = []
    original = Model.param_grad

    def counted(self, params, example):
        examples.append(example)
        return original(self, params, example)

    monkeypatch.setattr(Model, "param_grad", counted)
    return examples


class TestGradientStore:
    def test_influence_then_relatif_computes_training_gradients_once(self, monkeypatch):
        model, params, ds = trained_blobs(seed=20, n_per=5, epochs=2)
        h = dense_hessian(model, params, ds)
        lam = h.default_damping() + max(0.0, -1.1 * float(np.linalg.eigvalsh(h.matrix)[0]))
        calls = count_param_grads(monkeypatch)
        z = ds.example(0)  # one object for both rankings: the store keys by identity
        for method in ("influence", "relatif"):
            rank_training_set(model, params, ds, z, method, hessian=h, lam=lam)
        assert len(calls) == len(ds) + 1  # N training gradients and one query

    def test_grad_cos_for_two_test_images_computes_training_gradients_once(self, monkeypatch):
        model, params, ds = trained_blobs(seed=21, n_per=5, epochs=2)
        fresh = Model(model.arch)
        expected = [rank_training_set(fresh, params, ds, ds.example(q)) for q in (1, 2)]
        calls = count_param_grads(monkeypatch)
        got = [rank_training_set(model, params, ds, ds.example(q)) for q in (1, 2)]
        assert len(calls) == len(ds) + 2
        assert got == expected

    def test_two_rankings_of_one_dataset_take_the_row_norms_of_g_once(self, monkeypatch):
        model, params, ds = trained_blobs(seed=24, n_per=5, epochs=2)
        fresh = Model(model.arch)
        expected = [rank_training_set(fresh, params, ds, ds.example(q)) for q in (1, 2)]
        norm, row_norms = np.linalg.norm, []

        def counted(x, *args, **kwargs):
            if np.shape(x) == (len(ds), model.num_params):
                row_norms.append(kwargs.get("axis"))
            return norm(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        got = [rank_training_set(model, params, ds, ds.example(q)) for q in (1, 2)]
        assert row_norms == [1]
        assert got == expected

    def test_two_rankings_of_one_query_take_its_gradient_norm_once(self, monkeypatch):
        model, params, ds = trained_blobs(seed=25, n_per=5, epochs=2)
        hessian = dense_hessian(model, params, ds)
        z = ds.example(1)
        fresh = Model(model.arch)
        expected = [rank_training_set(fresh, params, ds, z, m, hessian=hessian) for m in ("influence", "relatif")]
        norm, test_norms = np.linalg.norm, []

        def counted(x, *args, **kwargs):
            if np.shape(x) == (model.num_params,):
                test_norms.append(kwargs.get("axis"))
            return norm(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        got = [rank_training_set(model, params, ds, z, m, hessian=hessian) for m in ("influence", "relatif")]
        assert test_norms == [-1]  # the check where query_gradient builds and keeps g_test
        assert got == expected

    @pytest.mark.parametrize("method", METHODS)
    def test_a_degenerate_test_gradient_raises_for_every_method(self, method):
        model, params, flat = saturated_dense()
        ds = Dataset(np.array([[1.0, 1.0]]), [1])
        for _ in range(2):  # nothing degenerate is kept
            with pytest.raises(DegenerateGradientError) as raised:
                rank_training_set(model, params, ds, flat, method, hessian=DampedHessian(np.eye(model.num_params)))
            assert raised.value.side == "test"

    def test_saliency_after_ranking_computes_no_gradient_again(self, monkeypatch):
        model, params, ds = trained_blobs(seed=22, n_per=5, epochs=2)
        z_test = ds.example(0)
        top = rank_training_set(model, params, ds, z_test).helpful(1)[0]
        calls = count_param_grads(monkeypatch)
        smoothgrad_saliency(
            model, params, ds.example(top.train_index), z_test, sigma=0.05, samples=2, seed=0
        )
        assert calls == []

    @pytest.mark.parametrize("change", ["params", "x", "y"])
    def test_query_gradient_is_kept_until_an_input_changes(self, change):
        """Parameters and examples refuse an in-place write; a new one, differing in one value, rebuilds."""
        model, params, ds = trained_blobs(seed=23, n_per=5, epochs=2)
        z = ds.example(0)
        g = query_gradient(model, params, z)
        assert not g.flags.writeable
        np.testing.assert_array_equal(g, model.param_grad(params, z))
        assert query_gradient(model, params, z) is g
        if change == "params":
            with pytest.raises(ValueError, match="read-only"):
                params.data[0] += 0.05
            params = models.ParamVector(params.data + 0.05, params.layout)
        elif change == "x":
            with pytest.raises(ValueError, match="read-only"):
                z.x[0] += 0.1
            x = z.x.copy()
            x[0] += 0.1
            z = LabeledExample(x, z.y)
        else:
            z = LabeledExample(z.x, (z.y + 1) % 3)
        after = query_gradient(model, params, z)
        assert after is not g
        assert not np.array_equal(after, g)
        np.testing.assert_array_equal(after, model.param_grad(params, z))

    def test_an_equal_example_rebuilds_the_query_gradient_and_the_solve(self, monkeypatch):
        """Entries are keyed by identity, so an equal-content twin of z_test is computed again, equal."""
        model, params, ds = trained_blobs(seed=29, n_per=5, epochs=2)
        h = dense_hessian(model, params, ds)
        z = ds.example(0)
        first = rank_training_set(model, params, ds, z, "influence", hessian=h)
        u = model._kept["solve"][2]
        calls = count_param_grads(monkeypatch)
        twin = LabeledExample(z.x, z.y)
        assert rank_training_set(model, params, ds, twin, "influence", hessian=h) == first
        assert calls == [twin]
        assert model._kept["solve"][2] is not u
        np.testing.assert_array_equal(model._kept["solve"][2], u)

    def test_three_queries_by_influence_and_relatif_make_one_training_solve(self, monkeypatch):
        model, params, ds = trained_blobs(seed=24, n_per=5, epochs=2)
        h = dense_hessian(model, params, ds)
        calls = []
        for name in ("solve", "response_norms"):
            original = getattr(DampedHessian, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(DampedHessian, name, counted)
        for q in (0, 1, 2):
            z = ds.example(q)
            for method in ("influence", "relatif"):
                rank_training_set(model, params, ds, z, method, hessian=h)
        # one solve per test gradient, and one set of training norms kept for RelatIF
        assert sorted(calls) == ["response_norms"] + ["solve"] * 3

    def test_kept_solve_is_read_only_and_recomputed_at_a_new_damping(self):
        model, params, ds = trained_blobs(seed=27, n_per=5, epochs=2)
        h = dense_hessian(model, params, ds)
        z = ds.example(0)
        g = query_gradient(model, params, z)
        lam = h.damping()
        rank_training_set(model, params, ds, z, "influence", hessian=h, lam=lam)
        u = model._kept["solve"][2]
        assert not u.flags.writeable
        fresh = h.solve(g, lam)  # the Hessian itself keeps no solve
        assert fresh is not u and fresh.flags.writeable and h.solve(g, lam) is not fresh
        np.testing.assert_array_equal(fresh, u)
        rank_training_set(model, params, ds, z, "influence", hessian=h, lam=lam)
        assert model._kept["solve"][2] is u
        rank_training_set(model, params, ds, z, "influence", hessian=h, lam=3.0 * lam)
        u3 = model._kept["solve"][2]
        assert u3 is not u
        np.testing.assert_array_equal(u3, DampedHessian(h.matrix).solve(g, 3.0 * lam))
        rank_training_set(model, params, ds, z, "influence", hessian=h, lam=lam)
        assert model._kept["solve"][2] is not u  # one entry per slot: lam's went when 3 lam came

    def test_relatif_norms_are_rebuilt_for_new_gradients_and_damping(self):
        model, params, ds = trained_blobs(seed=25, n_per=5, epochs=2)
        h = dense_hessian(model, params, ds)
        lam = h.damping()

        def ranked(params, hessian, lam):
            return rank_training_set(
                model, params, ds, ds.example(0), "relatif", hessian=hessian, lam=lam
            ).records

        first = ranked(params, h, lam)
        params = models.ParamVector(params.data + 0.05, params.layout)  # new parameters: G is rebuilt
        rebuilt = ranked(params, h, lam)
        assert rebuilt != first
        assert rebuilt == ranked(params, DampedHessian(h.matrix), lam)
        assert ranked(params, h, 3.0 * lam) == ranked(params, DampedHessian(h.matrix), 3.0 * lam)

    def test_solves_follow_a_caller_who_unlocks_and_writes_the_operand(self):
        """The Hessian keeps no result, so an operand written after a solve is solved anew."""
        model, params, ds = trained_blobs(seed=30, n_per=5, epochs=2)
        h = dense_hessian(model, params, ds)
        lam = h.damping()
        G = np.array(model.param_grads(params, ds))
        v = np.array(G[0])
        G.flags.writeable = v.flags.writeable = False
        h.response_norms(G, lam), h.solve(v, lam)
        G.flags.writeable = v.flags.writeable = True
        G *= 10.0
        v *= 10.0
        fresh = DampedHessian(h.matrix)
        np.testing.assert_array_equal(h.response_norms(G, lam), fresh.response_norms(G, lam))
        np.testing.assert_array_equal(h.solve(v, lam), fresh.solve(v, lam))


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
