"""Saliency-map checks.

The noiseless map is verified two independent ways: a hand-derived closed
form for a linear model (where the gradient magnitude cancels out of the
cosine and only its sign survives), and central finite differences of the
attribution score on a small CNN, at probe points safely away from
ReLU/maxpool kinks.
"""

import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from finite_diff import finite_diff_gradient
from tfa import autodiff as ad
from tfa.models import (
    ArchitectureSpec,
    Conv2d,
    Dataset,
    Dense,
    Flatten,
    LabeledExample,
    MaxPool,
    Model,
    ParamVector,
    Relu,
    TrainConfig,
    init_params,
    train,
)
from tfa.saliency import (
    SaliencyMap,
    channel_aggregate,
    smoothgrad_saliency,
    tfa_saliency,
)
from tfa.tda import DegenerateGradientError, query_gradient


def cnn_8x8(num_classes=2):
    return ArchitectureSpec(
        layers=(Conv2d(1, 4, 3), Relu(), MaxPool(2), Flatten(), Dense(36, num_classes)),
        input_shape=(1, 8, 8),
        num_classes=num_classes,
    )


def trained_cnn(seed=0):
    rng = np.random.default_rng(seed)
    n = 60
    X = rng.uniform(0.0, 0.3, size=(n, 1, 8, 8))
    y = np.zeros(n, dtype=int)
    for i in range(n):
        if i % 2 == 0:
            X[i, 0, :4] += 0.5
        else:
            X[i, 0, 4:] += 0.5
            y[i] = 1
    ds = Dataset(np.clip(X, 0.0, 1.0), y)
    arch = cnn_8x8()
    params, _ = train(ds, arch, TrainConfig(lr=0.2, epochs=5, batch_size=16, seed=seed))
    return Model(arch), params, ds


class TestClosedFormLinear:
    def test_gradient_of_cosine_has_sign_times_direction_form(self):
        # loss (theta . x - y)^2: the parameter gradient is 2 r x, so the
        # cosine against a fixed c collapses to sign(r) (x.c)/(|x||c|) and
        # its x-gradient follows by hand
        rng = np.random.default_rng(0)
        for _ in range(5):
            theta_val = rng.standard_normal(4)
            x_val = rng.standard_normal(4)
            c = rng.standard_normal(4)
            y = float(rng.standard_normal())
            r = float(theta_val @ x_val - y)
            if abs(r) < 1e-3:
                continue

            graph = ad.Graph()
            theta = graph.leaf(theta_val)
            x = graph.leaf(x_val)
            residual = ad.add(ad.dot(theta, x), graph.constant(-y))
            loss = ad.mul(residual, residual)
            (g,) = ad.backward(loss, [theta])
            score = ad.cosine(g, graph.constant(c))
            (sal,) = ad.backward(score, [x])

            nx, nc = np.linalg.norm(x_val), np.linalg.norm(c)
            expected = np.sign(r) * (c / (nx * nc) - (x_val @ c) * x_val / (nx**3 * nc))
            np.testing.assert_allclose(sal.value, expected, rtol=1e-10, atol=1e-12)


class TestSaliencyAgainstFiniteDifferences:
    def test_cnn_saliency_matches_fd(self):
        model, params, ds = trained_cnn()
        z_train, z_test = ds.example(0), ds.example(1)
        g_test = query_gradient(model, params, z_test)

        def score_at(x_flat):
            x = x_flat.reshape(z_train.x.shape)
            graph = ad.Graph()
            theta = graph.leaf(params.data)
            leaf = graph.leaf(x)
            loss = model.record_example_loss(theta, leaf, z_train.y, "cross-entropy")
            (g,) = ad.backward(loss, [theta])
            return float(ad.cosine(g, graph.constant(g_test)).value), graph

        # reject probe pixels too close to a kink for the FD step to be safe
        _, graph = score_at(z_train.x.ravel())
        assert ad.kink_margin(graph) > 1e-4

        sal = tfa_saliency(model, params, z_train, z_test)
        assert sal.values.shape == z_train.x.shape

        rng = np.random.default_rng(1)
        strong = np.flatnonzero(np.abs(sal.values.ravel()) > 1e-3 * np.abs(sal.values).max())
        probes = rng.choice(strong, size=min(12, len(strong)), replace=False)
        for j in probes:
            bump = np.zeros(z_train.x.size)
            bump[j] = 1e-5
            fd = (
                score_at(z_train.x.ravel() + bump)[0]
                - score_at(z_train.x.ravel() - bump)[0]
            ) / 2e-5
            np.testing.assert_allclose(sal.values.ravel()[j], fd, rtol=1e-4, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(
        cin=st.integers(1, 2),
        h=st.integers(6, 9),
        w=st.integers(6, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(cin=2, h=9, w=9, seed=108)  # its rounding noise over a step of 1e-6 exceeded the tolerance
    def test_sigma_zero_map_matches_central_differences(self, cin, h, w, seed):
        rng = np.random.default_rng(seed)
        ho, wo = (h - 2) // 2, (w - 2) // 2
        arch = ArchitectureSpec(
            layers=(Conv2d(cin, 3, 3), Relu(), MaxPool(2), Flatten(), Dense(3 * ho * wo, 3)),
            input_shape=(cin, h, w),
            num_classes=3,
        )
        model = Model(arch)
        params = ParamVector(0.5 * rng.standard_normal(model.num_params), init_params(arch, 0).layout)
        # The central difference errs by about noise / step + step^2 |f'''| / 6,
        # where noise is the score's rounding, about 4e-14 at the example above.
        # At 1e-6 the first term alone reached 3.9e-8 against an atol of 2e-8;
        # at 1e-5 it is 4e-9 and the second 2e-11 |f'''|. Pixels lie at least
        # one step inside [0, 1], so that every probe is an image.
        step = 1e-5
        z_train = LabeledExample(rng.uniform(step, 1.0 - step, (cin, h, w)), int(rng.integers(3)))
        z_test = LabeledExample(rng.uniform(0.0, 1.0, (cin, h, w)), int(rng.integers(3)))

        # a one-pixel step moves each conv output by one weight times the step,
        # and a pool gap by at most twice that: with |weights| far below 50, a
        # margin of 100 steps keeps every relu mask and pool argmax in place
        graph = ad.Graph()
        model.record_example_loss(graph.leaf(params.data), graph.leaf(z_train.x), z_train.y, "cross-entropy")
        assume(ad.kink_margin(graph) > 100 * step)

        g_test = query_gradient(model, params, z_test)

        def score(x):
            g_train = model.param_grad(params, LabeledExample(x, z_train.y))
            return float(g_train @ g_test / (np.linalg.norm(g_train) * np.linalg.norm(g_test)))

        sal = smoothgrad_saliency(model, params, z_train, z_test, sigma=0.0, samples=1, seed=None)
        fd = finite_diff_gradient(score, z_train.x, step)
        np.testing.assert_allclose(sal.values, fd, rtol=1e-5, atol=1e-6 * np.abs(fd).max())

    def test_unread_pixels_get_exactly_zero(self):
        # maxpool on a 5x5 input floors to 2x2 windows: the last row and
        # column never reach the logits, so their saliency must be exact zero
        arch = ArchitectureSpec(
            layers=(MaxPool(2), Flatten(), Dense(4, 2)),
            input_shape=(1, 5, 5),
            num_classes=2,
        )
        model = Model(arch)
        params = init_params(arch, seed=2)
        rng = np.random.default_rng(3)
        z_train = LabeledExample(rng.uniform(0.0, 1.0, size=(1, 5, 5)), 0)
        z_test = LabeledExample(rng.uniform(0.0, 1.0, size=(1, 5, 5)), 1)
        sal = tfa_saliency(model, params, z_train, z_test)
        np.testing.assert_array_equal(sal.values[0, 4, :], 0.0)
        np.testing.assert_array_equal(sal.values[0, :, 4], 0.0)

    def test_degenerate_test_gradient_raises(self):
        # logits (40, 0) at every input: a label-0 example's gradient has norm 4.9e-18
        arch = ArchitectureSpec(layers=(Dense(2, 2),), input_shape=(2,), num_classes=2)
        m2 = Model(arch)
        p2 = ParamVector(np.array([0.0, 0.0, 0.0, 0.0, 40.0, 0.0]), m2.layout)
        fit = LabeledExample(np.array([0.5, -0.25]), 0)
        other = LabeledExample(np.array([1.0, 0.5]), 1)
        with pytest.raises(DegenerateGradientError):
            tfa_saliency(m2, p2, other, fit)
        with pytest.raises(DegenerateGradientError):
            tfa_saliency(m2, p2, fit, other)


class TestSmoothgrad:
    def test_sigma_zero_equals_plain_saliency_bitwise(self):
        model, params, ds = trained_cnn()
        z_train, z_test = ds.example(2), ds.example(3)
        plain = tfa_saliency(model, params, z_train, z_test)
        for samples in (1, 7):
            smooth = smoothgrad_saliency(
                model, params, z_train, z_test, sigma=0.0, samples=samples, seed=11
            )
            assert np.array_equal(smooth.values, plain.values)

    def test_seeded_and_worker_invariant(self):
        model, params, ds = trained_cnn()
        z_train, z_test = ds.example(4), ds.example(5)
        kwargs = dict(sigma=0.1, samples=6, seed=21)
        a = smoothgrad_saliency(model, params, z_train, z_test, **kwargs)
        b = smoothgrad_saliency(model, params, z_train, z_test, **kwargs)
        c = smoothgrad_saliency(model, params, z_train, z_test, workers=4, **kwargs)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, c.values)
        d = smoothgrad_saliency(model, params, z_train, z_test, sigma=0.1, samples=6, seed=22)
        assert not np.array_equal(a.values, d.values)

    def test_average_equals_mean_of_single_sample_maps(self):
        model, params, ds = trained_cnn()
        z_train, z_test = ds.example(6), ds.example(7)
        seed, sigma, samples = 31, 0.05, 4
        combined = smoothgrad_saliency(
            model, params, z_train, z_test, sigma=sigma, samples=samples, seed=seed
        )
        from tfa.rng import stream

        from tfa.saliency import _pair_score_gradient

        g_test = query_gradient(model, params, z_test)
        total = np.zeros_like(z_train.x)
        for i in range(samples):
            noise = stream(seed, f"smoothgrad/{i}").normal(0.0, sigma, size=z_train.x.shape)
            total += _pair_score_gradient(model, params, z_train.x + noise, z_train.y, g_test)
        np.testing.assert_allclose(combined.values, total / samples, rtol=1e-12)

    def test_parameter_validation(self):
        model, params, ds = trained_cnn()
        for sigma in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma must be non-negative"):
                smoothgrad_saliency(model, params, ds.example(0), ds.example(1), sigma=sigma, samples=3, seed=0)
        with pytest.raises(ValueError):
            smoothgrad_saliency(model, params, ds.example(0), ds.example(1), sigma=0.1, samples=0, seed=0)


class TestReplayedSamples:
    """Every sample replays its label's program from the model's store, with the bytes and checks of a recording."""

    def test_maps_of_one_model_are_bitwise_those_of_fresh_models(self):
        model, params, ds = trained_cnn()
        z_test = ds.example(1)
        # labels alternate: each label's program is recorded at its first image and replayed at the others
        for i in range(6):
            z_train = ds.example(i)
            for sigma in (0.0, 0.05):
                kwargs = dict(sigma=sigma, samples=1, seed=i)
                held = smoothgrad_saliency(model, params, z_train, z_test, **kwargs)
                fresh = smoothgrad_saliency(Model(model.arch), params, z_train, z_test, **kwargs)
                assert held.values.tobytes() == fresh.values.tobytes()
        assert sorted(key for key in model._programs if key[0] == "pair") == [("pair", 0), ("pair", 1)]

    def test_a_model_holds_one_pair_program_per_class_and_no_value(self):
        model, params, ds = trained_cnn()
        z_train, z_test = ds.subset([0]).example(0), ds.subset([3]).example(0)  # rows only this test holds
        tfa_saliency(model, params, z_train, z_test)
        sources = [weakref.ref(v) for v in (params, params.data, z_train, z_train.x, z_test, z_test.x)]
        del params, z_train, z_test
        assert all(source() is None for source in sources)
        _, params, _ = trained_cnn()
        for y in [0, 1, 1, 0]:
            x = ds.X[y]
            tfa_saliency(model, params, LabeledExample(x, y), ds.example(3))
            tfa_saliency(model, params, LabeledExample(x.ravel(), y), ds.example(3))  # another shape records again
        assert sorted(key for key in model._programs if key[0] == "pair") == [("pair", 0), ("pair", 1)]

    def test_a_replayed_degenerate_sample_raises_as_its_recording_and_warns_nothing(self):
        arch = ArchitectureSpec((Dense(2, 2),), (2,), 2)
        params = ParamVector(np.array([40.0, 0.0, 0.0, 0.0, 0.0, 0.0]), init_params(arch, 0).layout)
        z_test = LabeledExample(np.array([0.0, 1.0]), 1)
        degenerate = LabeledExample(np.array([1.0, 0.0]), 0)  # logits (40, 0): p rounds to (1, 4e-18)
        model, messages = Model(arch), []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tfa_saliency(model, params, LabeledExample(np.array([0.0, 1.0]), 0), z_test)  # records label 0's program
            program = model._programs[("pair", 0)]
            for m in (Model(arch), model):  # a recording, then a replay
                with pytest.raises(DegenerateGradientError) as raised:
                    tfa_saliency(m, params, degenerate, z_test)
                assert raised.value.side == "train"
                messages.append(str(raised.value))
        assert model._programs[("pair", 0)] is program
        assert messages[0] == messages[1] and "6.0" in messages[0]


class TestChannelAggregate:
    def test_abs_sum(self):
        values = np.array([[[1.0, -2.0]], [[-3.0, 4.0]]])  # (2, 1, 2)
        np.testing.assert_allclose(channel_aggregate(values), [[4.0, 6.0]])

    def test_single_channel_passthrough_shape(self):
        grid = channel_aggregate(np.array([[1.0, -1.0], [0.5, 0.0]]))
        np.testing.assert_allclose(grid, [[1.0, 1.0], [0.5, 0.0]])

    def test_accepts_saliency_map_and_validates_shape(self):
        sal = SaliencyMap(np.ones((3, 2, 2)))
        assert channel_aggregate(sal).shape == (2, 2)
        assert np.all(channel_aggregate(sal) >= 0.0)
        with pytest.raises(ValueError):
            channel_aggregate(np.ones((1, 2, 3, 4)))
