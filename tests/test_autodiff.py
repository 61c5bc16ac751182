"""Gradient checks for the graph engine.

Every differentiable op is checked against central finite differences at
random smooth points, and the double-backward path is checked against both
hand derivations and finite differences of first-order gradients.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tfa import autodiff as ad


def fd(f, x, step=1e-6):
    return ad.finite_diff_gradient(f, x, step=step)


class TestPrimitiveGradients:
    def test_elementwise_ops_match_fd(self):
        rng = np.random.default_rng(0)
        cases = {
            "add": (lambda a, b: ad.add(a, b), 2),
            "mul": (lambda a, b: ad.mul(a, b), 2),
            "div": (lambda a, b: ad.div(a, b), 2),
            "neg": (lambda a: ad.neg(a), 1),
            "exp": (lambda a: ad.exp(a), 1),
            "log": (lambda a: ad.log(a), 1),
            "pow": (lambda a: ad.power(a, 3.0), 1),
        }
        for name, (op, arity) in cases.items():
            for trial in range(5):
                xs = [rng.uniform(0.5, 1.5, size=7) for _ in range(arity)]

                def scalar(values):
                    graph = ad.Graph()
                    leaves = [graph.leaf(v) for v in values]
                    out = op(*leaves)
                    # weighted sum makes the root scalar without symmetry
                    w = graph.constant(np.linspace(1.0, 2.0, out.size).reshape(out.shape))
                    return graph, leaves, ad.reduce_sum(ad.mul(out, w))

                graph, leaves, root = scalar(xs)
                grads = ad.backward(root, leaves)
                for i in range(arity):
                    def f(v, i=i):
                        vals = list(xs)
                        vals[i] = v
                        _, _, r = scalar(vals)
                        return float(r.value)

                    np.testing.assert_allclose(
                        grads[i].value, fd(f, xs[i]), rtol=1e-6, atol=1e-9,
                        err_msg=f"gradient mismatch for {name} arg {i}",
                    )

    @settings(max_examples=60, deadline=None)
    @given(
        shapes=hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3, max_side=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_broadcasting_add_mul_reduce_correctly(self, shapes, seed):
        (a_shape, b_shape), out_shape = shapes
        rng = np.random.default_rng(seed)
        a_val, b_val = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
        w_val = rng.standard_normal(out_shape)

        def reduce_to(g, shape):
            """Closed-form adjoint of broadcasting: sum over the broadcast axes."""
            g = g.sum(axis=tuple(range(g.ndim - len(shape))))
            return g.sum(axis=tuple(i for i, d in enumerate(shape) if d == 1), keepdims=True)

        expected = {
            "add": (reduce_to(w_val, a_shape), reduce_to(w_val, b_shape)),
            "mul": (reduce_to(w_val * b_val, a_shape), reduce_to(w_val * a_val, b_shape)),
        }
        for name, op in (("add", ad.add), ("mul", ad.mul)):
            graph = ad.Graph()
            a, b = graph.leaf(a_val), graph.leaf(b_val)
            root = ad.reduce_sum(ad.mul(op(a, b), graph.constant(w_val)))
            for g, want, shape in zip(ad.backward(root, [a, b]), expected[name], (a_shape, b_shape)):
                assert g.shape == shape
                np.testing.assert_allclose(g.value, want, rtol=1e-12, atol=1e-12, err_msg=name)

    def test_matmul_reshape_permute_match_fd(self):
        rng = np.random.default_rng(2)
        a_val = rng.standard_normal((3, 4))
        b_val = rng.standard_normal((4, 2))

        def build(a_in, b_in):
            graph = ad.Graph()
            a = graph.leaf(a_in)
            b = graph.leaf(b_in)
            out = ad.matmul(ad.permute(ad.reshape(a, (4, 3)), (1, 0)), b)
            w = graph.constant(rngw)
            return graph, a, b, ad.reduce_sum(ad.mul(out, w))

        rngw = np.random.default_rng(3).standard_normal((3, 2))
        graph, a, b, root = build(a_val, b_val)
        ga, gb = ad.backward(root, [a, b])
        np.testing.assert_allclose(
            ga.value, fd(lambda v: float(build(v, b_val)[3].value), a_val), rtol=1e-6
        )
        np.testing.assert_allclose(
            gb.value, fd(lambda v: float(build(a_val, v)[3].value), b_val), rtol=1e-6
        )

    @settings(max_examples=60, deadline=None)
    @given(
        x_shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
        index_shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_take_scatter_are_adjoint(self, x_shape, index_shape, seed):
        rng = np.random.default_rng(seed)
        x_val = rng.standard_normal(x_shape)
        v_val = rng.standard_normal(index_shape)
        idx = rng.integers(0, x_val.size, size=index_shape)
        idx.flat[-1] = idx.flat[0]  # at least one repeat whenever there are two entries

        graph = ad.Graph()
        taken = ad.take(graph.leaf(x_val), idx)
        scattered = ad.scatter(graph.leaf(v_val), idx, x_val.size)
        lhs = float(np.sum(taken.value * v_val))
        rhs = float(np.dot(x_val.ravel(), scattered.value))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_take_gradient_accumulates_repeated_indices(self):
        graph = ad.Graph()
        a = graph.leaf(np.array([1.0, 2.0, 3.0]))
        out = ad.take(a, np.array([0, 0, 2]))
        root = ad.reduce_sum(out)
        (g,) = ad.backward(root, [a])
        np.testing.assert_array_equal(g.value, [2.0, 0.0, 1.0])

    def test_relu_derivative_zero_at_kink(self):
        graph = ad.Graph()
        a = graph.leaf(np.array([-1.0, 0.0, 2.0]))
        root = ad.reduce_sum(ad.relu(a))
        (g,) = ad.backward(root, [a])
        np.testing.assert_array_equal(g.value, [0.0, 0.0, 1.0])


class TestConvAndPool:
    @staticmethod
    def naive_conv(x, w, b, stride=1):
        n, cin, h, wd = x.shape
        cout, _, kh, kw = w.shape
        ho = (h - kh) // stride + 1
        wo = (wd - kw) // stride + 1
        out = np.zeros((n, cout, ho, wo))
        for img in range(n):
            for o in range(cout):
                for i in range(ho):
                    for j in range(wo):
                        patch = x[img, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                        out[img, o, i, j] = np.sum(patch * w[o]) + b[o]
        return out

    def test_conv2d_forward_matches_naive(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 6, 5))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        for stride in (1, 2):
            graph = ad.Graph()
            out = ad.conv2d(graph.leaf(x), graph.constant(w), graph.constant(b), stride=stride)
            np.testing.assert_allclose(out.value, self.naive_conv(x, w, b, stride), rtol=1e-12)

    def test_conv2d_gradients_match_fd(self):
        rng = np.random.default_rng(6)
        x_val = rng.standard_normal((1, 2, 5, 5))
        w_val = rng.standard_normal((3, 2, 3, 3)) * 0.5
        b_val = rng.standard_normal(3)
        mix = np.random.default_rng(7).standard_normal((1, 3, 3, 3))

        def build(xv, wv, bv):
            graph = ad.Graph()
            x, w, b = graph.leaf(xv), graph.leaf(wv), graph.leaf(bv)
            out = ad.conv2d(x, w, b)
            return graph, (x, w, b), ad.reduce_sum(ad.mul(out, graph.constant(mix)))

        graph, leaves, root = build(x_val, w_val, b_val)
        gx, gw, gb = ad.backward(root, list(leaves))
        np.testing.assert_allclose(
            gx.value, fd(lambda v: float(build(v, w_val, b_val)[2].value), x_val), rtol=1e-6
        )
        np.testing.assert_allclose(
            gw.value, fd(lambda v: float(build(x_val, v, b_val)[2].value), w_val), rtol=1e-6
        )
        np.testing.assert_allclose(
            gb.value, fd(lambda v: float(build(x_val, w_val, v)[2].value), b_val), rtol=1e-6
        )

    def test_maxpool_forward_and_gradient(self):
        x = np.array(
            [[[[1.0, 2.0, 0.0, 0.0], [3.0, 4.0, 0.0, 0.0], [0.0, 0.0, 5.0, 1.0], [0.0, 0.0, 1.0, 2.0]]]]
        )
        graph = ad.Graph()
        leaf = graph.leaf(x)
        out = ad.maxpool2d(leaf, 2)
        np.testing.assert_array_equal(out.value, [[[[4.0, 0.0], [0.0, 5.0]]]])
        (g,) = ad.backward(ad.reduce_sum(out), [leaf])
        expected = np.zeros_like(x)
        expected[0, 0, 1, 1] = 1.0  # the 4
        expected[0, 0, 0, 2] = 1.0  # all-tied window, lowest flat index wins
        expected[0, 0, 2, 0] = 1.0  # same for the other all-zero window
        expected[0, 0, 2, 2] = 1.0  # the 5
        np.testing.assert_array_equal(g.value, expected)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3),
        cin=st.integers(1, 3),
        cout=st.integers(1, 3),
        kh=st.integers(1, 3),
        kw=st.integers(1, 3),
        extra_h=st.integers(0, 4),
        extra_w=st.integers(0, 4),
        stride=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_conv2d_forward_and_vjp_match_naive_loops(
        self, n, cin, cout, kh, kw, extra_h, extra_w, stride, seed
    ):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, cin, kh + extra_h, kw + extra_w))
        w = rng.standard_normal((cout, cin, kh, kw))
        b = rng.standard_normal(cout)
        graph = ad.Graph()
        leaves = [graph.leaf(v) for v in (x, w, b)]
        out = ad.conv2d(*leaves, stride=stride)
        up = rng.standard_normal(out.shape)
        grads = ad.backward(ad.reduce_sum(ad.mul(out, graph.constant(up))), leaves)

        expected = [np.zeros_like(x), np.zeros_like(w), np.zeros_like(b)]
        for img, o, i, j in np.ndindex(up.shape):
            window = (img, slice(None), slice(i * stride, i * stride + kh), slice(j * stride, j * stride + kw))
            expected[0][window] += up[img, o, i, j] * w[o]
            expected[1][o] += up[img, o, i, j] * x[window]
            expected[2][o] += up[img, o, i, j]
        np.testing.assert_allclose(out.value, self.naive_conv(x, w, b, stride), rtol=1e-12, atol=1e-12)
        for got, want in zip(grads, expected):
            np.testing.assert_allclose(got.value, want, rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        k=st.integers(1, 3),
        extra_h=st.integers(0, 4),
        extra_w=st.integers(0, 4),
        levels=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_maxpool2d_forward_and_vjp_match_naive_loops_under_ties(
        self, n, c, k, extra_h, extra_w, levels, seed
    ):
        # at most 3 distinct values, so every window of 4 or more entries ties
        rng = np.random.default_rng(seed)
        x = rng.integers(0, levels, size=(n, c, k + extra_h, k + extra_w)).astype(np.float64)
        graph = ad.Graph()
        leaf = graph.leaf(x)
        out = ad.maxpool2d(leaf, k)
        up = rng.standard_normal(out.shape)
        (gx,) = ad.backward(ad.reduce_sum(ad.mul(out, graph.constant(up))), [leaf])

        expected_out, expected_gx = np.zeros(out.shape), np.zeros_like(x)
        for img, ch, i, j in np.ndindex(out.shape):
            best = (i * k, j * k)  # the first maximum in row-major order wins
            for u in range(i * k, i * k + k):
                for v in range(j * k, j * k + k):
                    if x[img, ch, u, v] > x[(img, ch, *best)]:
                        best = (u, v)
            expected_out[img, ch, i, j] = x[(img, ch, *best)]
            expected_gx[(img, ch, *best)] += up[img, ch, i, j]
        np.testing.assert_array_equal(out.value, expected_out)
        np.testing.assert_array_equal(gx.value, expected_gx)

    def test_maxpool_floors_odd_sizes_and_ignores_trailing(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 1, 5, 5))
        graph = ad.Graph()
        leaf = graph.leaf(x)
        out = ad.maxpool2d(leaf, 2)
        assert out.shape == (1, 1, 2, 2)
        (g,) = ad.backward(ad.reduce_sum(out), [leaf])
        # the cropped row and column never influence the output
        np.testing.assert_array_equal(g.value[0, 0, 4, :], 0.0)
        np.testing.assert_array_equal(g.value[0, 0, :, 4], 0.0)


class TestLosses:
    def test_cross_entropy_uniform_logits(self):
        for k in (2, 5, 10):
            graph = ad.Graph()
            logits = graph.constant(np.zeros((1, k)))
            loss = ad.softmax_cross_entropy(logits, np.array([0]))
            np.testing.assert_allclose(loss.value, np.log(k), rtol=1e-12)

    def test_cross_entropy_saturated_logits_stable(self):
        graph = ad.Graph()
        logits = graph.constant(np.array([[1e6, 0.0, 0.0]]))
        loss = ad.softmax_cross_entropy(logits, np.array([0]))
        assert 0.0 <= float(loss.value[0]) < 1e-12

    def test_cross_entropy_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(9)
        logits_val = rng.standard_normal((4, 3))
        labels = np.array([0, 2, 1, 1])
        graph = ad.Graph()
        logits = graph.leaf(logits_val)
        loss = ad.reduce_sum(ad.softmax_cross_entropy(logits, labels))
        (g,) = ad.backward(loss, [logits])
        z = np.exp(logits_val - logits_val.max(axis=1, keepdims=True))
        softmax = z / z.sum(axis=1, keepdims=True)
        onehot = np.eye(3)[labels]
        np.testing.assert_allclose(g.value, softmax - onehot, rtol=1e-10)

    def test_cross_entropy_rejects_bad_labels(self):
        graph = ad.Graph()
        logits = graph.constant(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            ad.softmax_cross_entropy(logits, np.array([3]))

    def test_mse_matches_hand_formula(self):
        rng = np.random.default_rng(10)
        logits_val = rng.standard_normal((2, 4))
        labels = np.array([1, 3])
        graph = ad.Graph()
        loss = ad.mse_loss(graph.constant(logits_val), labels, 4)
        onehot = np.eye(4)[labels]
        np.testing.assert_allclose(loss.value, ((logits_val - onehot) ** 2).mean(axis=1), rtol=1e-12)

    def test_cosine_basic_properties(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(8)
        graph = ad.Graph()
        a = graph.leaf(v)
        np.testing.assert_allclose(float(ad.cosine(a, graph.constant(v)).value), 1.0, rtol=1e-12)
        np.testing.assert_allclose(
            float(ad.cosine(a, graph.constant(3.7 * v)).value), 1.0, rtol=1e-12
        )
        np.testing.assert_allclose(
            float(ad.cosine(a, graph.constant(-v)).value), -1.0, rtol=1e-12
        )

    def test_cosine_gradient_matches_fd(self):
        rng = np.random.default_rng(12)
        c = rng.standard_normal(6)
        x0 = rng.standard_normal(6)
        A = rng.standard_normal((6, 6)) * 0.3

        def build(xv):
            graph = ad.Graph()
            x = graph.leaf(xv)
            hidden = ad.exp(ad.reshape(ad.matmul(graph.constant(A), ad.reshape(x, (6, 1))), (6,)))
            return graph, x, ad.cosine(hidden, graph.constant(c))

        graph, x, root = build(x0)
        (g,) = ad.backward(root, [x])
        np.testing.assert_allclose(
            g.value, fd(lambda v: float(build(v)[2].value), x0), rtol=1e-6, atol=1e-9
        )


class TestBackwardContracts:
    def test_unreached_leaf_gets_exact_zero(self):
        graph = ad.Graph()
        a = graph.leaf(np.ones(3))
        b = graph.leaf(np.ones((2, 2)))
        root = ad.reduce_sum(ad.mul(a, a))
        (gb,) = ad.backward(root, [b])
        assert gb.shape == (2, 2)
        np.testing.assert_array_equal(gb.value, 0.0)

    def test_non_scalar_root_rejected(self):
        graph = ad.Graph()
        a = graph.leaf(np.ones(3))
        with pytest.raises(ad.GraphError):
            ad.backward(ad.mul(a, a), [a])

    def test_cross_graph_operands_rejected(self):
        g1, g2 = ad.Graph(), ad.Graph()
        with pytest.raises(ad.GraphError):
            ad.add(g1.leaf(1.0), g2.leaf(1.0))

    def test_shape_mismatch_raises(self):
        graph = ad.Graph()
        with pytest.raises(ad.ShapeError):
            ad.matmul(graph.leaf(np.ones((2, 3))), graph.leaf(np.ones((2, 3))))
        with pytest.raises(ad.ShapeError):
            ad.add(graph.leaf(np.ones(3)), graph.leaf(np.ones(4)))

    def test_non_finite_leaf_rejected(self):
        graph = ad.Graph()
        with pytest.raises(ValueError):
            graph.leaf(np.array([1.0, np.inf]))

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(13)
        x0 = rng.standard_normal(5)
        a, b = 2.25, -0.75

        def parts(xv):
            graph = ad.Graph()
            x = graph.leaf(xv)
            f = ad.reduce_sum(ad.mul(x, x))
            g = ad.reduce_sum(ad.exp(ad.mul(x, graph.constant(0.3))))
            return graph, x, f, g

        graph, x, f, g = parts(x0)
        combined = ad.add(ad.mul(f, a), ad.mul(g, b))
        (gc,) = ad.backward(combined, [x])
        (gf,) = ad.backward(f, [x])
        (gg,) = ad.backward(g, [x])
        np.testing.assert_allclose(gc.value, a * gf.value + b * gg.value, atol=1e-12)

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(14)
            graph = ad.Graph()
            x = graph.leaf(rng.standard_normal((3, 3)))
            w = graph.leaf(rng.standard_normal((3, 3)))
            root = ad.reduce_sum(ad.relu(ad.matmul(x, w)))
            gx, gw = ad.backward(root, [x, w])
            return gx.value.copy(), gw.value.copy()

        first, second = run(), run()
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_graph_ids_are_topological(self):
        graph = ad.Graph()
        a = graph.leaf(1.0)
        b = ad.mul(a, 2.0)
        c = ad.add(a, b)
        for node in graph.nodes:
            for parent in node.parents:
                assert parent.id < node.id
        assert c.id == len(graph.nodes) - 1


class TestTruncate:
    def test_dropped_nodes_are_released(self):
        graph = ad.Graph()
        x = graph.leaf(np.array([0.5, 2.0]))
        mark = len(graph.nodes)
        y = ad.exp(x)
        z = graph.leaf(np.array([1.0]))
        graph.truncate(mark)
        for node in (y, z):
            with pytest.raises(ad.GraphError, match="released"):
                node.graph
        np.testing.assert_array_equal(y.value, np.exp([0.5, 2.0]))
        assert graph.nodes == [x]
        assert x.graph is graph
        assert ad.neg(x).id == mark

    def test_truncate_bounds(self):
        graph = ad.Graph()
        graph.leaf(1.0)
        for length in (-1, 2):
            with pytest.raises(ValueError):
                graph.truncate(length)
        graph.truncate(1)
        assert len(graph.nodes) == 1

    def test_backward_after_truncate_matches_fresh_graph(self):
        rng = np.random.default_rng(21)
        x_val, w_val = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))

        def record(graph):
            x, w = graph.leaf(x_val), graph.leaf(w_val)
            root = ad.reduce_sum(ad.mul(ad.relu(ad.matmul(x, w)), ad.exp(ad.matmul(x, w))))
            (gw,) = ad.backward(root, [w])
            return x, w, gw

        shared = ad.Graph()
        x, w, gw = record(shared)
        mark = len(shared.nodes)
        for j in range(w_val.size):
            got = ad.grad(ad.take(gw, np.array([j])), x)
            shared.truncate(mark)
            fresh = ad.Graph()
            fx, _, fgw = record(fresh)
            expected = ad.grad(ad.take(fgw, np.array([j])), fx)
            np.testing.assert_array_equal(got, expected)
            assert len(shared.nodes) == mark


class TestDoubleBackward:
    def test_grad_norm_squared_of_linear_is_twice_input(self):
        rng = np.random.default_rng(15)
        x_val = rng.standard_normal(4)
        theta_val = rng.standard_normal(4)
        graph = ad.Graph()
        theta = graph.leaf(theta_val)
        x = graph.leaf(x_val)
        f = ad.dot(theta, x)
        (g,) = ad.backward(f, [theta])  # equals x
        scalar = ad.dot(g, g)  # equals ||x||^2
        (result,) = ad.backward(scalar, [x])
        np.testing.assert_allclose(result.value, 2.0 * x_val, rtol=1e-12)

    def test_grad_of_cosine_of_gradients_matches_fd(self):
        # two-parameter model, loss (theta . x - y)^2; the scalar is the
        # cosine between its parameter gradient and a fixed vector
        rng = np.random.default_rng(16)
        theta_val = rng.standard_normal(2)
        x0 = rng.standard_normal(2)
        fixed = rng.standard_normal(2)
        y = 0.7

        def scalar_at(xv):
            graph = ad.Graph()
            theta = graph.leaf(theta_val)
            x = graph.leaf(xv)
            residual = ad.add(ad.dot(theta, x), graph.constant(-y))
            loss = ad.mul(residual, residual)
            (g,) = ad.backward(loss, [theta])
            return graph, x, ad.cosine(g, graph.constant(fixed))

        graph, x, scalar = scalar_at(x0)
        (gx,) = ad.backward(scalar, [x])
        np.testing.assert_allclose(
            gx.value, fd(lambda v: float(scalar_at(v)[2].value), x0), rtol=1e-6, atol=1e-8
        )

    def test_scalar_independent_of_target_gives_zeros(self):
        graph = ad.Graph()
        theta = graph.leaf(np.ones(3))
        x = graph.leaf(np.ones(5))
        f = ad.reduce_sum(ad.mul(theta, theta))
        (g,) = ad.backward(f, [theta])
        (result,) = ad.backward(ad.dot(g, g), [x])
        np.testing.assert_array_equal(result.value, np.zeros(5))

    def test_double_backward_rejects_non_scalar(self):
        graph = ad.Graph()
        x = graph.leaf(np.ones(3))
        (g,) = ad.backward(ad.reduce_sum(ad.mul(x, x)), [x])
        with pytest.raises(ad.GraphError):
            ad.backward(ad.mul(g, g), [x])

    def test_second_derivative_of_cubic(self):
        graph = ad.Graph()
        x = graph.leaf(np.array(2.0))
        f = ad.power(x, 3.0)
        (g,) = ad.backward(f, [x])  # 3 x^2 = 12
        np.testing.assert_allclose(g.value, 12.0, rtol=1e-12)
        (h,) = ad.backward(g, [x])  # 6 x = 12
        np.testing.assert_allclose(h.value, 12.0, rtol=1e-12)


class TestFiniteDiffHelper:
    def test_quadratic_gradient(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])

        def f(x):
            return float(x @ A @ x)

        x0 = np.array([0.3, -0.7])
        np.testing.assert_allclose(fd(f, x0), 2.0 * A @ x0, rtol=1e-7)


class TestKinkMargin:
    def test_reports_distance_to_relu_and_pool_kinks(self):
        graph = ad.Graph()
        a = graph.leaf(np.array([0.25, -3.0]))
        ad.relu(a)
        assert np.isclose(ad.kink_margin(graph), 0.25)

        graph = ad.Graph()
        x = graph.leaf(np.array([[[[1.0, 0.9], [0.0, 0.0]]]]))
        ad.maxpool2d(x, 2)
        assert np.isclose(ad.kink_margin(graph), 0.1)

    def test_infinite_when_no_kinks(self):
        graph = ad.Graph()
        a = graph.leaf(np.ones(3))
        ad.reduce_sum(ad.mul(a, a))
        assert ad.kink_margin(graph) == np.inf
