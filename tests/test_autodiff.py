"""Gradient checks for the graph engine.

Every differentiable op is checked against central finite differences at
random smooth points, and the double-backward path is checked against both
hand derivations and finite differences of first-order gradients.
"""

import re
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from finite_diff import finite_diff_gradient
from tfa import autodiff as ad


def fd(f, x, step=1e-6):
    return finite_diff_gradient(f, x, step=step)


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

    @pytest.mark.parametrize("indices", [[0, 5], [0, 3], [-1, 0]])
    def test_take_and_scatter_reject_indices_out_of_range(self, indices):
        graph = ad.Graph()
        with pytest.raises(ad.ShapeError, match="take: indices out of range for size 3"):
            ad.take(graph.leaf(np.ones(3)), np.array(indices))
        with pytest.raises(ad.ShapeError, match="scatter: indices out of range for size 3"):
            ad.scatter(graph.leaf(np.ones(2)), indices, 3)
        assert len(graph.nodes) == 2  # the two leaves: neither op recorded a node

    @pytest.mark.parametrize("axis", [5, -3, (0, 2)])
    def test_reduce_sum_rejects_an_axis_out_of_range(self, axis):
        graph = ad.Graph()
        x = graph.leaf(np.ones((2, 3)))
        bad = axis[1] if isinstance(axis, tuple) else axis
        with pytest.raises(ad.ShapeError, match=re.escape(f"reduce_sum: axis {bad} out of range for shape (2, 3)")):
            ad.reduce_sum(x, axis=axis)

    def test_permute_with_negative_axes_returns_the_operand_shaped_gradient(self):
        graph = ad.Graph()
        x = graph.leaf(np.arange(6.0).reshape(2, 3))
        w = np.arange(6.0).reshape(3, 2)
        root = ad.reduce_sum(ad.mul(ad.permute(x, (-1, 0)), graph.constant(w)))
        np.testing.assert_array_equal(ad.grad(root, x), w.T)

    def test_reshape_to_the_own_shape_records_no_node(self):
        graph = ad.Graph()
        x = graph.leaf(np.arange(6.0).reshape(2, 3))
        assert ad.reshape(x, x.shape) is x
        assert ad.reshape(x, (2, -1)) is x
        assert len(graph.nodes) == 1
        y = ad.reshape(x, (3, 2))
        assert y is not x and y.shape == (3, 2) and len(graph.nodes) == 2

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

    def test_relu_records_its_mask_as_its_second_parent_and_no_sweep_records_another(self):
        graph = ad.Graph()
        a = graph.leaf(np.array([-1.0, 0.0, 2.0, -0.0]))
        out = ad.relu(a)
        mask = out.parents[1]
        assert (mask.kind, mask.parents, mask.value.dtype) == ("relu_mask", (a,), np.bool_)
        assert mask.value.tolist() == [False, False, True, False]
        root = ad.reduce_sum(out)
        recorded = len(graph.nodes)
        for _ in range(2):
            (g,) = ad.backward(root, [a])
            assert g.value.tobytes() == np.array([0.0, 0.0, 1.0, 0.0]).tobytes()  # the bytes of a float mask
        assert "relu_mask" not in {n.kind for n in graph.nodes[recorded:]}
        held = weakref.ref(mask.value)
        del graph, mask, root, g
        assert held() is not None  # a parent of `out`, which is still held
        del out
        assert held() is None


class TestConvAndPool:
    @staticmethod
    def naive_conv(x, w, b):
        n, cin, h, wd = x.shape
        cout, _, kh, kw = w.shape
        ho = h - kh + 1
        wo = wd - kw + 1
        out = np.zeros((n, cout, ho, wo))
        for img in range(n):
            for o in range(cout):
                for i in range(ho):
                    for j in range(wo):
                        patch = x[img, :, i : i + kh, j : j + kw]
                        out[img, o, i, j] = np.sum(patch * w[o]) + b[o]
        return out

    def test_conv2d_forward_matches_naive(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 6, 5))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        graph = ad.Graph()
        out = ad.conv2d(graph.leaf(x), graph.constant(w), graph.constant(b))
        np.testing.assert_allclose(out.value, self.naive_conv(x, w, b), rtol=1e-12)

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
        seed=st.integers(0, 2**32 - 1),
    )
    def test_conv2d_forward_and_vjp_match_naive_loops(self, n, cin, cout, kh, kw, extra_h, extra_w, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, cin, kh + extra_h, kw + extra_w))
        w = rng.standard_normal((cout, cin, kh, kw))
        b = rng.standard_normal(cout)
        graph = ad.Graph()
        leaves = [graph.leaf(v) for v in (x, w, b)]
        out = ad.conv2d(*leaves)
        up = rng.standard_normal(out.shape)
        grads = ad.backward(ad.reduce_sum(ad.mul(out, graph.constant(up))), leaves)

        expected = [np.zeros_like(x), np.zeros_like(w), np.zeros_like(b)]
        for img, o, i, j in np.ndindex(up.shape):
            window = (img, slice(None), slice(i, i + kh), slice(j, j + kw))
            expected[0][window] += up[img, o, i, j] * w[o]
            expected[1][o] += up[img, o, i, j] * x[window]
            expected[2][o] += up[img, o, i, j]
        np.testing.assert_allclose(out.value, self.naive_conv(x, w, b), rtol=1e-12, atol=1e-12)
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
        # at most 3 distinct values, so every window of 4 or more entries ties;
        # zeros carry random signs, and the first window ties -0.0 with 0.0
        rng = np.random.default_rng(seed)
        x = rng.integers(0, levels, size=(n, c, k + extra_h, k + extra_w)).astype(np.float64)
        zeros = x == 0.0
        x[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
        x[0, 0, :k, :k] = 0.0 * rng.choice([-1.0, 1.0], size=(k, k))
        if k > 1:
            x[0, 0, 0, 0], x[0, 0, k - 1, k - 1] = -0.0, 0.0
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
        assert out.value.tobytes() == expected_out.tobytes()  # -0.0 and 0.0 differ in bytes
        np.testing.assert_array_equal(gx.value, expected_gx)

    def test_conv2d_output_is_contiguous_nchw_and_records_no_permute(self):
        rng = np.random.default_rng(9)
        graph = ad.Graph()
        x = graph.leaf(rng.standard_normal((3, 2, 12, 12)))
        w1, b1 = graph.leaf(rng.standard_normal((4, 2, 3, 3))), graph.leaf(rng.standard_normal(4))
        w2, b2 = graph.leaf(rng.standard_normal((5, 4, 3, 3))), graph.leaf(rng.standard_normal(5))
        first = ad.conv2d(x, w1, b1)
        pooled = ad.maxpool2d(ad.relu(first), 2)
        second = ad.conv2d(pooled, w2, b2)
        assert "permute" not in {n.kind for n in graph.nodes}
        assert first.value.flags.c_contiguous and second.value.flags.c_contiguous
        gathered = [n.parents[0] for n in graph.nodes if n.kind == "im2col"]
        assert gathered[1] is pooled and pooled.value.flags.c_contiguous

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

    @pytest.mark.parametrize(
        "labels, error, match",
        [
            ([1], ad.ShapeError, r"labels shape \(1,\) does not match 3 rows"),
            ([[1, 2, 0]], ad.ShapeError, "does not match 3 rows"),
            ([0, 4, 1], ValueError, "out of range for 4 classes"),
            ([0, -1, 1], ValueError, "out of range for 4 classes"),
        ],
    )
    def test_cross_entropy_checks_labels(self, labels, error, match):
        graph = ad.Graph()
        logits = graph.constant(np.zeros((3, 4)))
        with pytest.raises(error, match=match):
            ad.softmax_cross_entropy(logits, np.array(labels))

    def test_cross_entropy_rejects_a_non_finite_row_maximum(self):
        graph = ad.Graph()
        with np.errstate(over="ignore", invalid="ignore"):
            big = ad.mul(graph.leaf(np.array([[1.0, 0.0], [1e308, 0.0]])), 10.0)  # row 1 overflows to inf
            for logits in (big, ad.add(big, ad.neg(big))):  # inf, then inf - inf = nan
                with pytest.raises(ValueError, match="a row of logits has a non-finite maximum"):
                    ad.softmax_cross_entropy(logits, np.array([0, 1]))

    def test_cross_entropy_checks_logits_rank(self):
        graph = ad.Graph()
        with pytest.raises(ad.ShapeError, match=re.escape("softmax_cross_entropy expects (N, K) logits, got (4,)")):
            ad.softmax_cross_entropy(graph.constant(np.zeros(4)), np.array([0]))

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_leaf_constant_and_lifted_operands_reject_non_finite_values(self, bad):
        graph = ad.Graph()
        x = graph.leaf(np.ones(2))
        with pytest.raises(ValueError, match="leaf value contains non-finite entries"):
            graph.leaf(np.array([1.0, bad]))
        with pytest.raises(ValueError, match="constant value contains non-finite entries"):
            graph.constant(np.array([bad, 1.0]))
        with pytest.raises(ValueError, match="constant value contains non-finite entries"):
            ad.mul(x, bad)
        assert len(graph.nodes) == 1

    def test_target_outside_the_root_graph_rejected(self):
        g1, g2 = ad.Graph(), ad.Graph()
        a, b = g1.leaf(2.0), g1.leaf(3.0)
        r = ad.mul(a, b)
        c = g2.leaf(5.0)  # g2's leaf 0, the id of a in g1
        with pytest.raises(ad.GraphError, match="not a node of the root's graph"):
            ad.backward(r, [c])

        mark = len(g1.nodes)
        dropped = g1.leaf(7.0)
        g1.truncate(mark)
        again = g1.leaf(7.0)  # takes the dropped node's id
        assert again.id == dropped.id
        root = ad.mul(again, b)
        with pytest.raises(ad.GraphError, match="not a node of the root's graph"):
            ad.backward(root, [dropped])
        assert ad.grad(root, again) == 3.0

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


def strict_maxpool(x, k):
    """The window maxima by a strict comparison chain: a tie keeps the first view's entry."""
    views = ad._pool_views(x, k)
    value = views[0]
    for v in views[1:]:
        value = np.where(v > value, v, value)
    return value


# finite values with exact ties and zeros of both signs
TIED = st.sampled_from([0.0, -0.0, 1.5, -1.5, 0.25]) | st.floats(-1e300, 1e300, allow_subnormal=True)


class TestKernelTieRule:
    """relu and maxpool are one np.maximum pass each, byte-equal to the masked product and the strict chain."""

    def test_numpy_maximum_returns_its_second_operand_on_a_signed_zero_tie(self):
        a, b = np.array([0.0, -0.0, 0.0, -0.0] * 64), np.array([-0.0, 0.0, 0.0, -0.0] * 64)  # scalar and SIMD paths
        for first, second, out in [(a, b, np.maximum(a, b)), (-0.0, b, np.maximum(-0.0, b)), (a[0], b[0], np.maximum(a[0], b[0]))]:
            assert np.array_equal(np.signbit(out), np.signbit(second)), (
                f"numpy {np.__version__}: np.maximum({first!r}, {second!r}) did not return its second operand on a "
                "-0.0/+0.0 tie; autodiff's relu kernel (np.maximum(-0.0, a)) and _maxpool (np.maximum(v, value)) rely on it"
            )

    @settings(max_examples=60, deadline=None)
    @given(a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=4, max_side=6), elements=TIED))
    def test_relu_kernel_is_bitwise_the_masked_product(self, a):
        assert ad._KERNELS["relu"](a, a > 0.0, None).tobytes() == (a * (a > 0.0)).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        x=hnp.arrays(np.float64, st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(3, 7), st.integers(3, 7)), elements=TIED),
        k=st.integers(1, 3),
    )
    def test_maxpool_kernel_is_bitwise_the_strict_chain(self, x, k):
        assert ad._KERNELS["maxpool"](x, k).tobytes() == strict_maxpool(x, k).tobytes()

    def test_an_overflowing_pre_activation(self):
        """relu(-inf) is -0.0 with a zero derivative, +inf stays +inf, and a loss through them still fails loudly."""
        graph = ad.Graph()
        a = graph.leaf(np.array([1e200, -1e200, 1.0, -1.0]))
        with np.errstate(over="ignore"):
            pre = ad.mul(a, 1e200)  # inf, -inf, 1e200, -1e200
        out = ad.relu(pre)
        assert out.value.tobytes() == np.array([np.inf, -0.0, 1e200, -0.0]).tobytes()
        np.testing.assert_array_equal(ad.grad(ad.reduce_sum(out), pre), [1.0, 0.0, 1.0, 0.0])
        # a NaN in any view of a window is that window's maximum
        x = np.zeros((1, 1, 2, 4))
        x[0, 0, 1, 1], x[0, 0, 0, 2] = np.nan, 5.0
        assert np.isnan(ad._KERNELS["maxpool"](x, 2)).tolist() == [[[[True, False]]]]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="non-finite maximum"):
            ad.softmax_cross_entropy(ad.reshape(out, (2, 2)), np.array([0, 1]))  # a row of [inf, -0.0]


class TestReplay:
    @staticmethod
    def saliency_sample(theta_value, x_value, g_value):
        """d/dx cos(d loss/d theta, g): a second-order graph through conv, relu and maxpool."""
        graph = ad.Graph()
        theta, x, g = graph.leaf(theta_value), graph.leaf(x_value), graph.constant(g_value)
        w, b = ad.reshape(ad.take(theta, np.arange(36)), (4, 1, 3, 3)), ad.take(theta, np.arange(36, 40))
        pooled = ad.maxpool2d(ad.relu(ad.conv2d(ad.reshape(x, (1, 1, 12, 12)), w, b)), 2)
        head = ad.reshape(ad.take(theta, np.arange(40, 340)), (100, 3))
        logits = ad.add(ad.matmul(ad.reshape(pooled, (1, 100)), head), ad.take(theta, np.arange(340, 343)))
        (g_theta,) = ad.backward(ad.reduce_sum(ad.softmax_cross_entropy(logits, np.array([1]))), [theta])
        (g_x,) = ad.backward(ad.cosine(g_theta, g), [x])
        return graph, (theta, x, g), g_x

    def test_a_second_order_program_through_maxpool_replays_a_fresh_recording(self):
        rng = np.random.default_rng(41)
        theta, g = rng.uniform(-0.5, 0.5, 343), rng.standard_normal(343)
        x0, x1 = rng.uniform(0.0, 1.0, 144), rng.uniform(0.0, 1.0, 144)
        graph, inputs, g_x = self.saliency_sample(theta, x0, g)
        program = ad._trace(inputs, (g_x,))
        fresh_graph, _, fresh = self.saliency_sample(theta, x1, g)
        argmaxes = [[n.value for n in gr.nodes if n.kind == "argmax"] for gr in (graph, fresh_graph)]
        assert not np.array_equal(argmaxes[0][0], argmaxes[1][0])  # the pools pick other entries at x1
        assert ad._replay(program, (theta, x1, g))[0].tobytes() == fresh.value.tobytes()
        assert ad._replay(program, (theta, x0, g))[0].tobytes() == g_x.value.tobytes()


def through(case, graph, x):
    """An (array) node of the (2, 4) leaf x whose graph records at least one node of the case's kind."""
    rows = ad.reduce_sum(x, axis=0, keepdims=True)  # (1, 4): a broadcast operand that depends on x
    positive = ad.add(ad.mul(x, x), 1.0)
    # maxpool's VJP unpools through an argmax node, and unpool's VJP is a take_at through the same node
    unpooled = lambda: ad.backward(ad.reduce_sum(ad.power(through("maxpool", graph, x), 2.0)), [x])[0]
    return {
        "add": lambda: ad.add(x, rows),
        "neg": lambda: ad.neg(x),
        "mul": lambda: ad.mul(x, rows),
        "div": lambda: ad.div(x, ad.add(ad.mul(rows, rows), 1.0)),
        "pow": lambda: ad.power(positive, 2.5),
        "exp": lambda: ad.exp(x),
        "log": lambda: ad.log(positive),
        "relu": lambda: ad.relu(x),
        "sum": lambda: ad.reduce_sum(x, axis=-1),
        "broadcast": lambda: ad.broadcast_to(ad.reshape(x, (1, 2, 4)), (3, 2, 4)),
        "reshape": lambda: ad.reshape(x, (4, 2)),
        "permute": lambda: ad.permute(x, (-1, 0)),
        "matmul": lambda: ad.matmul(x, ad.permute(x, (1, 0))),
        # numpy's stacked products: a shared 2-d operand, and a batch axis of 1 against one of 2
        "matmul 2-d @ 3-d": lambda: ad.matmul(x, ad.reshape(x, (2, 4, 1))),
        "matmul 3-d @ 3-d": lambda: ad.matmul(ad.reshape(x, (1, 2, 4)), ad.reshape(x, (2, 4, 1))),
        "take": lambda: ad.take(x, np.array([[0, 7, 7], [3, 0, 5]])),
        "im2col": lambda: ad.conv2d(ad.reshape(x, (1, 1, 2, 4)), graph.constant(np.ones((2, 1, 2, 2))), graph.constant(np.zeros(2))),
        "scatter": lambda: ad.scatter(x, np.array([[0, 4, 1, 1], [2, 0, 3, 4]]), 5),
        "maxpool": lambda: ad.maxpool2d(ad.reshape(x, (1, 2, 2, 2)), 2),
        "unpool": unpooled,
        "take_at": lambda: ad.backward(ad.reduce_sum(ad.mul(unpooled(), x)), [x])[0],
    }[case]()


class TestVjpTable:
    """Every node kind has one kernel and one VJP, and its VJP differentiates again."""

    def test_every_kind_with_a_kernel_has_a_vjp(self):
        assert set(ad._VJPS) == set(ad._KERNELS) - {"const", "relu_mask", "logit_max", "argmax"}

    @staticmethod
    def gradient(case, x_value):
        """The graph, leaf x and d f/dx of f = sum(w * out * out), out through the case."""
        graph = ad.Graph()
        x = graph.leaf(x_value)
        out = through(case, graph, x)
        w = graph.constant(np.linspace(1.0, 2.0, out.size).reshape(out.shape))
        (g,) = ad.backward(ad.reduce_sum(ad.mul(w, ad.mul(out, out))), [x])
        return graph, x, g

    @pytest.mark.parametrize("case", sorted(ad._VJPS) + ["matmul 2-d @ 3-d", "matmul 3-d @ 3-d"])
    @settings(max_examples=15, deadline=None)
    @given(
        magnitudes=hnp.arrays(np.float64, (2, 4), elements=st.floats(0.1, 1.5), unique=True),
        signs=hnp.arrays(np.bool_, (2, 4)),
        direction=hnp.arrays(np.float64, (2, 4), elements=st.floats(-1.0, 1.0)),
    )
    def test_double_backward_matches_central_differences_of_the_gradient(self, case, magnitudes, signs, direction):
        x0 = np.where(signs, magnitudes, -magnitudes)
        graph, x, g = self.gradient(case, x0)
        assert case.split()[0] in {n.kind for n in graph.nodes}
        step = 1e-5
        assume(ad.kink_margin(graph) > 10 * step)  # no relu mask or pool argmax flips within the step
        (hv,) = ad.backward(ad.reduce_sum(ad.mul(g, graph.constant(direction))), [x])
        # H v is linear in v: differences along v / max|v|, scaled back, keep the step's rounding off a tiny v
        scale = np.abs(direction).max() or 1.0
        unit = direction / scale
        central = (self.gradient(case, x0 + step * unit)[2].value - self.gradient(case, x0 - step * unit)[2].value) / (2 * step)
        np.testing.assert_allclose(hv.value, scale * central, rtol=1e-6, atol=1e-7)
