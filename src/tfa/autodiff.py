"""Reverse-mode autodiff on an explicit graph, with a differentiable backward.

The engine records every operation (including the adjoint computations
performed by :func:`backward`) as nodes of a :class:`Graph`, so gradients are
ordinary nodes and can be differentiated again. That second differentiation
is what the saliency code relies on: it needs the input-gradient of a scalar
that was itself built from parameter gradients.

Everything is float64. Nonlinear primitives are kept to a minimum; composite
operations (convolution, pooling, losses, cosine) are built from the
primitives so their second derivatives come for free. Convolution is lowered
to a flat gather (im2col) plus a matmul, and maxpool to a flat gather of
per-window argmax positions; gather/scatter are exact linear adjoints of one
another, which keeps double backprop through both exact. Both read one window
table per layer geometry (channels, height, width, kernel, stride): the flat
indices of every window of one example, built once and shared by every batch
size. A batch adds its example offsets, which live only while a graph holds
them; a graph of fewer examples recorded meanwhile reads a prefix of them.

Lifetime: a :class:`Graph` owns its nodes, and each node refers back to its
graph only weakly, so a graph holds no reference cycle. Once the caller drops
the graph, reference counting frees it together with every node and array it
recorded, without waiting for the cyclic garbage collector. A node kept past
that point still has its value, but can no longer record operations.
:meth:`Graph.truncate` releases the nodes after a mark in the same way, so
several backward sweeps can share one recorded forward pass.
"""

from __future__ import annotations

import weakref

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


class GraphError(RuntimeError):
    """Raised on structural misuse: cross-graph operands, non-scalar roots."""


def _as_value(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Node:
    """One recorded value. Do not construct directly; use Graph or the ops.

    A node holds its graph by weak reference (the graph owns the node), so
    ``node.graph`` raises :class:`GraphError` once the graph is released.
    """

    __slots__ = ("_graph", "id", "kind", "parents", "value", "meta", "_vjp", "__weakref__")

    def __init__(self, graph_ref, node_id, kind, parents, value, vjp=None, meta=None):
        self._graph = graph_ref
        self.id = node_id
        self.kind = kind
        self.parents = parents
        self.value = value
        self.meta = meta
        self._vjp = vjp

    @property
    def graph(self) -> Graph:
        graph = self._graph()
        if graph is None:
            raise GraphError(f"the graph of node {self.id} ({self.kind}) has been released")
        return graph

    @property
    def shape(self):
        return self.value.shape

    @property
    def size(self):
        return self.value.size

    def __repr__(self):
        return f"Node(id={self.id}, kind={self.kind!r}, shape={self.shape})"


class Graph:
    """Append-only record of a computation.

    Node ids are assigned in creation order, so parents always precede
    children; both backward sweeps below lean on that ordering. The graph
    owns its nodes; keep it referenced for as long as its nodes are used to
    record operations or as ``backward`` roots. The only way to remove nodes
    is :meth:`truncate`, which drops a suffix.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self._ref = weakref.ref(self)

    def _append(self, kind, parents, value, vjp=None, meta=None) -> Node:
        node = Node(self._ref, len(self.nodes), kind, parents, value, vjp, meta)
        self.nodes.append(node)
        return node

    def leaf(self, value) -> Node:
        """Differentiation input. Values must be finite."""
        value = _as_value(value)
        if not np.all(np.isfinite(value)):
            raise ValueError("leaf value contains non-finite entries")
        return self._append("leaf", (), value)

    def constant(self, value) -> Node:
        """Value held fixed under differentiation."""
        value = _as_value(value)
        if not np.all(np.isfinite(value)):
            raise ValueError("constant value contains non-finite entries")
        return self._append("const", (), value)

    def truncate(self, length: int) -> None:
        """Drop every node recorded after the first ``length``.

        A dropped node keeps its value, but ``node.graph`` raises
        :class:`GraphError`, as for a released graph, and the next node
        recorded gets id ``length``. Nodes before the mark are untouched, so
        ``length = len(graph.nodes)`` taken after a forward pass lets each
        later sweep reuse that pass and then free what it recorded.
        """
        if not 0 <= length <= len(self.nodes):
            raise ValueError(f"cannot truncate a graph of {len(self.nodes)} nodes to {length}")
        for node in self.nodes[length:]:
            node._graph = _RELEASED
        del self.nodes[length:]


# a weak reference whose graph is already gone: what a truncated node holds
_RELEASED = weakref.ref(Graph())


def _lift(graph: Graph, x) -> Node:
    if isinstance(x, Node):
        if x.graph is not graph:
            raise GraphError("operands belong to different graphs")
        return x
    return graph.constant(x)


def _pair(a, b):
    if isinstance(a, Node):
        return a, _lift(a.graph, b)
    if isinstance(b, Node):
        return _lift(b.graph, a), b
    raise TypeError("at least one operand must be a Node")


def _broadcast_shape(kind, a, b):
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{kind}: cannot broadcast {a.shape} with {b.shape}") from None


def _unbroadcast(g: Node, shape) -> Node:
    """Reduce an out-shaped adjoint back to an operand's shape."""
    if g.shape == shape:
        return g
    lead = len(g.shape) - len(shape)
    axes = [i for i in range(lead) if g.shape[i] > 1]
    axes += [lead + i for i, d in enumerate(shape) if d == 1 and g.shape[lead + i] > 1]
    if axes:
        g = reduce_sum(g, axis=tuple(axes), keepdims=True)
    if g.shape != shape:
        g = reshape(g, shape)
    return g


# ---------------------------------------------------------------------------
# primitives


def add(a, b) -> Node:
    a, b = _pair(a, b)
    _broadcast_shape("add", a, b)

    def vjp(g, needs):
        return (
            _unbroadcast(g, a.shape) if needs[0] else None,
            _unbroadcast(g, b.shape) if needs[1] else None,
        )

    return a.graph._append("add", (a, b), a.value + b.value, vjp)


def neg(a: Node) -> Node:
    def vjp(g, needs):
        return (neg(g),)

    return a.graph._append("neg", (a,), -a.value, vjp)


def mul(a, b) -> Node:
    a, b = _pair(a, b)
    _broadcast_shape("mul", a, b)

    def vjp(g, needs):
        return (
            _unbroadcast(mul(g, b), a.shape) if needs[0] else None,
            _unbroadcast(mul(g, a), b.shape) if needs[1] else None,
        )

    return a.graph._append("mul", (a, b), a.value * b.value, vjp)


def div(a, b) -> Node:
    a, b = _pair(a, b)
    _broadcast_shape("div", a, b)

    def vjp(g, needs):
        ga = _unbroadcast(div(g, b), a.shape) if needs[0] else None
        gb = None
        if needs[1]:
            gb = _unbroadcast(neg(div(mul(g, out_ref()), b)), b.shape)
        return (ga, gb)

    out = a.graph._append("div", (a, b), a.value / b.value, vjp)
    out_ref = weakref.ref(out)  # a strong reference would make the node a cycle
    return out


def power(a: Node, exponent: float) -> Node:
    exponent = float(exponent)

    def vjp(g, needs):
        return (mul(g, mul(power(a, exponent - 1.0), exponent)),)

    return a.graph._append("pow", (a,), a.value**exponent, vjp, meta=exponent)


def exp(a: Node) -> Node:
    def vjp(g, needs):
        return (mul(g, out_ref()),)

    out = a.graph._append("exp", (a,), np.exp(a.value), vjp)
    out_ref = weakref.ref(out)  # a strong reference would make the node a cycle
    return out


def log(a: Node) -> Node:
    def vjp(g, needs):
        return (div(g, a),)

    return a.graph._append("log", (a,), np.log(a.value), vjp)


def relu(a: Node) -> Node:
    # Derivative at exactly 0 is taken to be 0; the mask is a constant of the
    # recorded forward values, so the second backward treats it as such.
    mask = (a.value > 0.0).astype(np.float64)

    def vjp(g, needs):
        return (mul(g, a.graph.constant(mask)),)

    return a.graph._append("relu", (a,), a.value * mask, vjp)


def reduce_sum(a: Node, axis=None, keepdims: bool = False) -> Node:
    if axis is not None and not isinstance(axis, tuple):
        axis = (axis,)

    kept = list(a.shape)
    if axis is None:
        kept = [1] * len(a.shape)
    else:
        for ax in axis:
            kept[ax] = 1
    kept = tuple(kept)

    def vjp(g, needs):
        gg = g if g.shape == kept else reshape(g, kept)
        return (broadcast_to(gg, a.shape),)

    value = np.sum(a.value, axis=axis, keepdims=keepdims)
    return a.graph._append("sum", (a,), value, vjp)


def broadcast_to(a: Node, shape) -> Node:
    shape = tuple(shape)
    try:
        value = np.broadcast_to(a.value, shape)
    except ValueError:
        raise ShapeError(f"broadcast: cannot expand {a.shape} to {shape}") from None

    def vjp(g, needs):
        return (_unbroadcast(g, a.shape),)

    return a.graph._append("broadcast", (a,), value, vjp)


def reshape(a: Node, shape) -> Node:
    value = a.value.reshape(shape)

    def vjp(g, needs):
        return (reshape(g, a.shape),)

    return a.graph._append("reshape", (a,), value, vjp)


def permute(a: Node, axes) -> Node:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def vjp(g, needs):
        return (permute(g, inverse),)

    return a.graph._append("permute", (a,), np.transpose(a.value, axes), vjp)


def transpose(a: Node) -> Node:
    if a.value.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got {a.shape}")
    return permute(a, (1, 0))


def matmul(a, b) -> Node:
    a, b = _pair(a, b)
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")

    def vjp(g, needs):
        return (
            matmul(g, transpose(b)) if needs[0] else None,
            matmul(transpose(a), g) if needs[1] else None,
        )

    return a.graph._append("matmul", (a, b), a.value @ b.value, vjp)


def take(a: Node, indices: np.ndarray, kind: str = "take") -> Node:
    """Gather from the flattened input; indices are a fixed integer array."""
    indices = np.asarray(indices)
    if indices.size and (indices.min() < 0 or indices.max() >= a.size):
        raise ShapeError(f"take: indices out of range for size {a.size}")

    def vjp(g, needs):
        return (reshape(scatter(g, indices, a.size), a.shape),)

    return a.graph._append(kind, (a,), a.value.ravel()[indices], vjp, meta=indices)


def scatter(v: Node, indices: np.ndarray, size: int) -> Node:
    """Adjoint of ``take``: sum entries of v into a flat vector of ``size``."""
    if v.shape != indices.shape:
        raise ShapeError(f"scatter: value shape {v.shape} != index shape {indices.shape}")

    def vjp(g, needs):
        return (take(g, indices),)

    value = np.bincount(indices.ravel(), weights=v.value.ravel(), minlength=size)
    return v.graph._append("scatter", (v,), value, vjp, meta=indices)


# ---------------------------------------------------------------------------
# composites


def dot(a: Node, b: Node) -> Node:
    if a.value.ndim != 1 or b.value.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"dot expects equal-length vectors, got {a.shape}, {b.shape}")
    return reduce_sum(mul(a, b))


def norm(a: Node) -> Node:
    """Euclidean norm of a vector. Not differentiable at exactly zero."""
    if a.value.ndim != 1:
        raise ShapeError(f"norm expects a vector, got {a.shape}")
    return power(reduce_sum(mul(a, a)), 0.5)


def cosine(a: Node, b: Node) -> Node:
    """Cosine similarity of two vectors; caller guards against zero norms."""
    return div(dot(a, b), mul(norm(a), norm(b)))


# layer geometry -> [window table of one example, weak reference to the last
# batch of its indices built]; a batch lives only while a graph holds it
_WINDOW_TABLES: dict[tuple, list] = {}


def _window_table(c: int, h: int, w: int, kh: int, kw: int, stride: int) -> list:
    """[table, last batch]: the table holds the flat indices of every kh x kw
    window of one (c, h, w) example, read-only, (ho, wo, c, kh*kw), row-major."""
    key = (c, h, w, kh, kw, stride)
    if key not in _WINDOW_TABLES:
        ho, wo = (h - kh) // stride + 1, (w - kw) // stride + 1
        rows = np.arange(ho)[:, None, None, None, None] * stride + np.arange(kh)[:, None]
        cols = np.arange(wo)[:, None, None, None] * stride + np.arange(kw)
        table = (np.arange(c)[:, None, None] * (h * w) + rows * w + cols).reshape(ho, wo, c, kh * kw)
        table.flags.writeable = False
        _WINDOW_TABLES[key] = [table, _RELEASED]  # no batch yet
    return _WINDOW_TABLES[key]


def conv2d(x: Node, weight: Node, bias: Node | None = None, stride: int = 1) -> Node:
    """Valid (no padding) 2-d convolution over a batched (N, C, H, W) input."""
    if x.value.ndim != 4 or weight.value.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input and kernel, got {x.shape}, {weight.shape}")
    n, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d: input has {cin} channels, kernel expects {cin_w}")
    if kh > h or kw > w:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} larger than input {h}x{w}")
    entry = _window_table(cin, h, w, kh, kw, stride)
    idx = entry[1]()  # live graphs share one batch; a smaller batch is its prefix
    if idx is None or len(idx) < n:
        idx = entry[0] + (np.arange(n) * (cin * h * w))[:, None, None, None, None]
        idx.flags.writeable = False
        entry[1] = weakref.ref(idx)
    idx = idx[:n]
    ho, wo = idx.shape[1:3]
    # rows in (n, ho, wo) order, columns in (cin, kh, kw) order like the kernel reshape
    cols = take(x, idx.reshape(n * ho * wo, cin * kh * kw), kind="im2col")
    out = matmul(cols, transpose(reshape(weight, (cout, cin * kh * kw))))
    if bias is not None:
        out = add(out, bias)
    return permute(reshape(out, (n, ho, wo, cout)), (0, 3, 1, 2))


def maxpool2d(x: Node, k: int) -> Node:
    """Max pooling with window and stride k; trailing rows/cols are dropped."""
    if x.value.ndim != 4:
        raise ShapeError(f"maxpool2d expects a 4-d input, got {x.shape}")
    n, c, h, w = x.shape
    if h < k or w < k:
        raise ShapeError(f"maxpool2d: window {k} larger than input {h}x{w}")
    table = _window_table(c, h, w, k, k, k)[0]
    windows = np.take(x.value.reshape(n, c * h * w), table, axis=1)  # (n, ho, wo, c, k*k)
    arg = windows.argmax(axis=-1)  # first max wins, i.e. lowest flat index
    idx = np.take_along_axis(table[None], arg[..., None], axis=-1)[..., 0]
    idx = idx + (np.arange(n) * (c * h * w))[:, None, None, None]  # (n, ho, wo, c)
    node = take(x, np.ascontiguousarray(idx.transpose(0, 3, 1, 2)), kind="maxpool")
    node.meta = k
    return node


def softmax_cross_entropy(logits: Node, labels: np.ndarray) -> Node:
    """Per-example cross-entropy of (N, K) logits against integer labels.

    Stabilized by subtracting the rowwise max as a constant, which leaves the
    value and both derivative orders exact.
    """
    if logits.value.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects (N, K) logits, got {logits.shape}")
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match {n} rows")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label out of range for {k} classes")
    m = logits.value.max(axis=1, keepdims=True)
    shifted = add(logits, logits.graph.constant(-m))
    lse = add(log(reduce_sum(exp(shifted), axis=1)), logits.graph.constant(m[:, 0]))
    picked = take(logits, np.arange(n) * k + labels)
    return add(lse, neg(picked))


def mse_loss(logits: Node, labels: np.ndarray, num_classes: int) -> Node:
    """Per-example mean squared error against one-hot targets."""
    if logits.value.ndim != 2:
        raise ShapeError(f"mse_loss expects (N, K) logits, got {logits.shape}")
    labels = np.asarray(labels)
    n, k = logits.shape
    if k != num_classes:
        raise ShapeError(f"logits have {k} columns, expected {num_classes}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label out of range for {k} classes")
    onehot = np.zeros((n, k))
    onehot[np.arange(n), labels] = 1.0
    diff = add(logits, logits.graph.constant(-onehot))
    return div(reduce_sum(mul(diff, diff), axis=1), float(k))


# ---------------------------------------------------------------------------
# backward


def _check_scalar(node: Node, what: str):
    if node.value.size != 1 or node.value.ndim > 1:
        raise GraphError(f"{what} must be a scalar node, got shape {node.shape}")


def backward(root: Node, wrt) -> list[Node]:
    """Gradients of a scalar root with respect to the given nodes.

    The adjoint computations are recorded on the same graph, so the returned
    gradients are nodes and can be fed to ``backward`` again. Targets the
    root does not depend on get an exact zero of the target's shape.
    """
    _check_scalar(root, "backward root")
    targets = list(wrt)

    # reaches[id]: a target is reachable from this node via parent edges. Ids are
    # list positions in topological order: one pass up marks, one pass down sweeps.
    graph = root.graph
    nodes = graph.nodes[: root.id + 1]
    target_ids = {t.id for t in targets}
    reaches: list[bool] = []
    for n in nodes:
        reaches.append(n.id in target_ids or any(reaches[p.id] for p in n.parents))

    adjoint: dict[int, Node] = {root.id: graph.constant(np.ones_like(root.value))}
    for n in reversed(nodes):
        g = adjoint.get(n.id)
        if g is None:
            continue
        needs = tuple(reaches[p.id] for p in n.parents)
        if not any(needs):
            continue
        for parent, contribution in zip(n.parents, n._vjp(g, needs)):
            if contribution is None:
                continue
            held = adjoint.get(parent.id)
            adjoint[parent.id] = contribution if held is None else add(held, contribution)

    out = []
    for t in targets:
        g = adjoint.get(t.id)
        out.append(g if g is not None else graph.constant(np.zeros_like(t.value)))
    return out


def grad(root: Node, target: Node) -> np.ndarray:
    """Value of d(root)/d(target). Convenience wrapper over backward."""
    return backward(root, [target])[0].value


def finite_diff_gradient(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, elementwise in x."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    flat = out.ravel()
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump.ravel()[i] = step
        flat[i] = (f(x + bump) - f(x - bump)) / (2.0 * step)
    return out


def kink_margin(graph: Graph) -> float:
    """Distance of the recorded forward pass from the nearest kink.

    Returns the minimum over ReLU inputs of |input| and over maxpool windows
    of (max - runner-up). Finite-difference checks use this to reject probe
    points where a tiny step could flip a mask or an argmax.
    """
    margin = np.inf
    for node in graph.nodes:
        if node.kind == "relu":
            values = node.parents[0].value
            if values.size:
                margin = min(margin, float(np.min(np.abs(values))))
        elif node.kind == "maxpool":
            (n, c, h, w), k = node.parents[0].shape, node.meta
            table = _window_table(c, h, w, k, k, k)[0]
            windows = np.take(node.parents[0].value.reshape(n, c * h * w), table, axis=1).reshape(-1, k * k)
            if windows.shape[1] > 1:
                top2 = np.partition(windows, -2, axis=1)[:, -2:]
                gaps = top2[:, 1] - top2[:, 0]
                if node.parents[0].kind == "relu":
                    # all-zero windows after a relu are clamp plateaus, not
                    # genuine ties: a small input step leaves every clamped
                    # entry at exactly zero, so the argmax cannot flip
                    gaps = gaps[top2[:, 1] > 0.0]
                if gaps.size:
                    margin = min(margin, float(np.min(gaps)))
    return margin
