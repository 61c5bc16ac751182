"""Reverse-mode autodiff on an explicit graph, with a differentiable backward.

The engine records every operation (including the adjoint computations
performed by :func:`backward`) as nodes of a :class:`Graph`, so gradients are
ordinary nodes and can be differentiated again, as the saliency code needs.

Everything is float64 but relu's boolean mask. Nonlinear primitives are kept
to a minimum; composite operations (convolution, pooling, cross-entropy,
cosine) are built from the primitives so their second derivatives come for
free. Convolution copies one (cin*kh*kw, ho*wo) column block per example
out of a strided view of its input (``im2col``), and one ``matmul_add`` node
(numpy's stacked product, over 2-d or 3-d operands, whose VJP sums a shared
operand's adjoint over the stack) by the (cout, cin*kh*kw) kernel, plus the
bias added into the product's own array, gives a contiguous NCHW output.
``im2col`` and its adjoint ``col2im``, a ``bincount`` through the windows'
flat indices, are exact linear adjoints of one another, as are ``take`` and
``scatter``, which keeps double backprop through them exact. ``col2im``
reads one window table per layer geometry (channels, height, width,
kernel), built once and shared by every batch size; it adds the example
offsets to it for that call alone, so no node, program or cache holds an
index array that grows with the batch. Relu is one
pass, ``np.maximum(-0.0, a)``, and maxpool folds its k*k strided views with
``np.maximum(view, value)``. numpy returns the second operand on a tie of
-0.0 and 0.0 (a test checks this numpy rule), so on finite values these give
the bytes of ``a * (a > 0.0)`` and of a strict comparison chain in which a
window's first entry wins a tie. Off them, relu(-inf) is -0.0 and a NaN in
any view is its window's maximum.

Lifetime: a :class:`Graph` owns its nodes, and each node refers back to its
graph only weakly, so reference counting alone frees a dropped graph with
every node and array it recorded. A node kept past that point still has its
value, but can no longer record operations. :meth:`Graph.truncate` releases
the nodes after a mark the same way, so several backward sweeps can share
one recorded forward pass.

Values are checked where they enter: ``Graph.leaf``, ``Graph.constant`` and
plain operands must be finite, and public ``take`` and ``scatter`` indices in
range. What the engine makes itself (backward seed, zero adjoints, relu
masks, softmax shifts, conv windows, every other index array) skips those
checks. A reshape to the operand's own shape returns the operand.

One row per node kind: every op records its node through one call,
``_record(kind, parents, meta)``, which computes the value as
``_KERNELS[kind](*parent values, meta)``, and ``backward`` asks
``_VJPS[kind](node, g, needs)`` for the node's adjoint contributions. A VJP
reads everything from its node (parents, meta, value), so a node holds no
closure and no reference to itself. Every index array lives in a node's
value, never in a meta: ``take`` and ``scatter`` read their indices from
their second parent, an engine-made constant or maxpool's argmax node, and
each is the other's VJP through it. A value derived from other values is a
node over them too, recorded with its op: relu's mask ``a > 0.0``
(``relu_mask``, relu's second parent, which its VJP multiplies by) and the
softmax shifts (``logit_max``). Maxpool's argmax indices (``argmax``) are
built at its first VJP and kept in ``node.kept``, because a value pass never
needs them. These derived kinds alone have no VJP, and ``backward`` reaches
no target through them, so they stay constants under differentiation.

Record once, replay: ``_trace`` keeps the steps some outputs depend on as a
program, and ``_replay`` runs their kernels on new input values, checked
finite like a leaf's or constant's, building no node. Every step is
kernel(*its parents' values, meta), so a replay rebuilds each derived value
from its own inputs, to any derivative order, with the recording's checks,
such as a non-finite logit maximum. A program keeps no input value, and each
step's meta as recorded.
"""

from __future__ import annotations

import math
import weakref
from typing import NamedTuple

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


class GraphError(RuntimeError):
    """Raised on structural misuse: cross-graph operands, non-scalar roots."""


def _finite(x, kind: str) -> np.ndarray:
    """x as float64, which must be finite; kind ("leaf" or "constant") names it in the error."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{kind} value contains non-finite entries")
    return x


class Node:
    """One recorded value. Do not construct directly; use Graph or the ops.

    A node holds its graph by weak reference (the graph owns the node), so
    ``node.graph`` raises :class:`GraphError` once the graph is released.
    An op's node holds what its kernel and VJP read, ``parents`` and
    ``meta``: its value is ``_KERNELS[kind](*the parents' values, meta)``.
    A maxpool node's ``kept`` holds the argmax indices its first VJP builds.
    """

    __slots__ = ("_graph", "id", "kind", "parents", "value", "meta", "kept", "__weakref__")

    def __init__(self, graph_ref, node_id, kind, parents, value, meta=None):
        self._graph = graph_ref
        self.id = node_id
        self.kind = kind
        self.parents = parents
        self.value = value
        self.meta = meta
        self.kept = None

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

    def _append(self, kind, parents, value, meta=None) -> Node:
        node = Node(self._ref, len(self.nodes), kind, parents, value, meta)
        self.nodes.append(node)
        return node

    def _constant(self, value: np.ndarray) -> Node:
        """Any array the engine made itself, indices included, recorded without the float64 cast and the finiteness scan."""
        return self._append("const", (), value)

    def leaf(self, value) -> Node:
        """Differentiation input. Values must be finite."""
        return self._append("leaf", (), _finite(value, "leaf"))

    def constant(self, value) -> Node:
        """Value held fixed under differentiation."""
        return self._append("const", (), _finite(value, "constant"))

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


def _lift(node: Node, x) -> Node:
    if isinstance(x, Node):
        if x._graph is not node._graph:
            raise GraphError("operands belong to different graphs")
        return x
    return node.graph.constant(x)


def _pair(a, b):
    if isinstance(a, Node):
        return a, _lift(a, b)
    if isinstance(b, Node):
        return _lift(b, a), b
    raise TypeError("at least one operand must be a Node")


def _unbroadcast(g: Node, shape) -> Node:
    """Reduce an out-shaped adjoint back to an operand's shape."""
    if g.shape == shape:
        return g
    lead = len(g.shape) - len(shape)
    axes = [i for i in range(lead) if g.shape[i] != 1]  # an empty stack sums to zeros too
    axes += [lead + i for i, d in enumerate(shape) if d == 1 and g.shape[lead + i] != 1]
    if axes:
        g = reduce_sum(g, axis=tuple(axes), keepdims=True)
    return reshape(g, shape)


# ---------------------------------------------------------------------------
# kernels: each node kind's value, kernel(*parent values, meta)


def _maxpool(x: np.ndarray, k: int) -> np.ndarray:
    views = _pool_views(x, k)
    value = views[0]
    for v in views[1:]:
        value = np.maximum(v, value)  # numpy returns the second operand on a tie: the first view's -0.0 or 0.0
    return value


def _im2col(x: np.ndarray, kh_kw: tuple) -> np.ndarray:
    """The (n, c*kh*kw, ho*wo) column blocks of an (n, c, h, w) array: a copy of its strided
    (n, c, kh, kw, ho, wo) window view, rows in (c, kh, kw) order like the kernel reshape."""
    (kh, kw), (n, c, h, w) = kh_kw, x.shape
    x = np.ascontiguousarray(x)
    windows = np.ndarray((n, c, kh, kw, h - kh + 1, w - kw + 1), x.dtype, x, 0, (*x.strides, *x.strides[2:]))
    return windows.reshape(n, c * kh * kw, (h - kh + 1) * (w - kw + 1))


def _col2im(cols: np.ndarray, meta: tuple) -> np.ndarray:
    """im2col's adjoint: each (n, c*kh*kw, ho*wo) entry summed into its input position, (n, c, h, w)."""
    (n, c, h, w), kh, kw = meta
    idx = _window_table(c, h, w, kh, kw)
    if n != 1:  # the example offsets live for this call alone; at n = 0 they empty the table
        idx = idx + (np.arange(n) * (c * h * w))[:, None, None]
    return np.bincount(idx.ravel(), cols.ravel(), n * c * h * w).reshape(n, c, h, w)


def _logit_max(logits: np.ndarray, negate: bool) -> np.ndarray:
    """Rowwise max of (N, K) logits: negated (N, 1) for the shift, else (N,)."""
    m = logits.max(axis=1, keepdims=True)
    if not np.isfinite(m).all():  # the shifts skip the constants' finiteness scan
        raise ValueError("softmax_cross_entropy: a row of logits has a non-finite maximum")
    return -m if negate else m[:, 0]


# _record computes every node's value from this table, and a replay reads it
_KERNELS = {
    "const": lambda value: value,  # a constant's step carries its value as meta
    "add": lambda a, b, _: a + b,
    "neg": lambda a, _: -a,
    "mul": lambda a, b, _: a * b,
    "div": lambda a, b, _: a / b,
    "pow": lambda a, exponent: a**exponent,
    "exp": lambda a, _: np.exp(a),
    "log": lambda a, _: np.log(a),
    "relu": lambda a, mask, _: np.maximum(-0.0, a),  # a * (a > 0.0): numpy returns a on a tie, -0.0 or 0.0
    "sum": lambda a, axis_keepdims: a.sum(axis=axis_keepdims[0], keepdims=axis_keepdims[1]),
    "broadcast": lambda a, shape: np.broadcast_to(a, shape),
    "reshape": lambda a, shape: a.reshape(shape),
    "permute": lambda a, axes: a.transpose(axes),
    "matmul": lambda a, b, _: a @ b,
    "matmul_add": lambda a, b, c, _: np.add(v := a @ b, c, out=v),  # a @ b + c, summed into the product's array
    # indices are the second parent's value: an engine-made constant or maxpool's argmax node
    "take": lambda a, indices, _: a.ravel()[indices],
    "scatter": lambda v, indices, shape: np.bincount(indices.ravel(), v.ravel(), math.prod(shape)).reshape(shape),
    "im2col": _im2col,
    "col2im": _col2im,
    "maxpool": _maxpool,
    # values derived from their parents' values that backward holds fixed: these kinds alone have no VJP
    "relu_mask": lambda a, _: a > 0.0,  # bool: g * mask casts it exactly
    "logit_max": _logit_max,
    "argmax": lambda x, pooled, k: _pool_indices(x, pooled, k),
}


# ---------------------------------------------------------------------------
# primitives


def _record(kind: str, parents: tuple, meta=None) -> Node:
    """Record a node of kind over parents, of value ``_KERNELS[kind](*parent values, meta)``: every op does so here."""
    return parents[0].graph._append(kind, parents, _KERNELS[kind](*[p.value for p in parents], meta), meta)


def _broadcasting(kind: str, a, b) -> Node:
    a, b = _pair(a, b)
    try:  # the kernel raises before it computes anything
        return _record(kind, (a, b))
    except ValueError:
        raise ShapeError(f"{kind}: cannot broadcast {a.shape} with {b.shape}") from None


def add(a, b) -> Node:
    return _broadcasting("add", a, b)


def neg(a: Node) -> Node:
    return _record("neg", (a,))


def mul(a, b) -> Node:
    return _broadcasting("mul", a, b)


def div(a, b) -> Node:
    return _broadcasting("div", a, b)


def power(a: Node, exponent: float) -> Node:
    return _record("pow", (a,), float(exponent))


def exp(a: Node) -> Node:
    return _record("exp", (a,))


def log(a: Node) -> Node:
    return _record("log", (a,))


def relu(a: Node) -> Node:
    """max(a, 0); its derivative at exactly 0 is taken to be 0."""
    return _record("relu", (a, _record("relu_mask", (a,))))


def reduce_sum(a: Node, axis=None, keepdims: bool = False) -> Node:
    if axis is not None and not isinstance(axis, tuple):
        axis = (axis,)
    for ax in axis or ():
        if not -a.value.ndim <= ax < a.value.ndim:
            raise ShapeError(f"reduce_sum: axis {ax} out of range for shape {a.shape}")
    return _record("sum", (a,), (axis, keepdims))


def broadcast_to(a: Node, shape) -> Node:
    shape = tuple(shape)
    try:
        return _record("broadcast", (a,), shape)
    except ValueError:
        raise ShapeError(f"broadcast: cannot expand {a.shape} to {shape}") from None


def reshape(a: Node, shape) -> Node:
    try:  # numpy resolves the shape on a zero-byte array of a's shape, copying none of a's values
        shape = np.empty(a.shape, dtype=[]).reshape(shape).shape
    except ValueError:
        raise ShapeError(f"reshape: cannot reshape {a.shape} to {shape}") from None
    return a if shape == a.shape else _record("reshape", (a,), shape)


def permute(a: Node, axes) -> Node:
    return _record("permute", (a,), tuple(axes))


def _matmul_operands(a, b) -> tuple:
    a, b = _pair(a, b)
    if not 2 <= a.value.ndim <= 3 or not 2 <= b.value.ndim <= 3 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    return a, b


def matmul(a, b) -> Node:
    """a @ b of 2-d operands, or numpy's stacked product where either is 3-d."""
    return _broadcasting("matmul", *_matmul_operands(a, b))


def matmul_add(a, b, c) -> Node:
    """matmul(a, b) + c as one node, c broadcast to the product's shape: the bytes of both ops, one array fewer."""
    a, b = _matmul_operands(a, b)
    c = _lift(a, c)
    try:  # the kernel raises before it adds anything
        return _record("matmul_add", (a, b, c))
    except ValueError:
        raise ShapeError(f"matmul_add: cannot add {c.shape} to {a.shape} @ {b.shape}") from None


def take(a: Node, indices: np.ndarray) -> Node:
    """Gather from the flattened input; indices are a fixed integer array."""
    indices = np.asarray(indices)
    if indices.size and (indices.min() < 0 or indices.max() >= a.size):
        raise ShapeError(f"take: indices out of range for size {a.size}")
    return _record("take", (a, a.graph._constant(indices)))  # the engine's own gathers record directly, unchecked


def scatter(v: Node, indices: np.ndarray, size: int) -> Node:
    """Adjoint of ``take``: sum entries of v into a flat vector of ``size``."""
    indices = np.asarray(indices)
    if v.shape != indices.shape:
        raise ShapeError(f"scatter: value shape {v.shape} != index shape {indices.shape}")
    if indices.size and (indices.min() < 0 or indices.max() >= size):
        raise ShapeError(f"scatter: indices out of range for size {size}")
    return _record("scatter", (v, v.graph._constant(indices)), (size,))


# ---------------------------------------------------------------------------
# VJPs: each node kind's adjoint, vjp(node, g, needs) -> one contribution per
# parent (None where needs says it reaches no target), recorded through the ops


def _vjp_mul(n: Node, g: Node, needs) -> tuple:
    a, b = n.parents
    return (
        _unbroadcast(mul(g, b), a.shape) if needs[0] else None,
        _unbroadcast(mul(g, a), b.shape) if needs[1] else None,
    )


def _vjp_div(n: Node, g: Node, needs) -> tuple:
    a, b = n.parents
    return (
        _unbroadcast(div(g, b), a.shape) if needs[0] else None,
        _unbroadcast(neg(div(mul(g, n), b)), b.shape) if needs[1] else None,
    )


def _vjp_sum(n: Node, g: Node, needs) -> tuple:
    (a,), (axis, _) = n.parents, n.meta
    summed = range(a.value.ndim) if axis is None else {ax % a.value.ndim for ax in axis}
    return (broadcast_to(reshape(g, tuple(1 if i in summed else d for i, d in enumerate(a.shape))), a.shape),)


def _vjp_matmul(n: Node, g: Node, needs) -> tuple:
    a, b = n.parents[:2]  # t swaps the last two axes; a stacked product sums a shared operand's adjoint over the stack
    t = lambda v: permute(v, (*range(v.value.ndim - 2), v.value.ndim - 1, v.value.ndim - 2))
    return (
        _unbroadcast(matmul(g, t(b)), a.shape) if needs[0] else None,
        _unbroadcast(matmul(t(a), g), b.shape) if needs[1] else None,
    )


def _vjp_matmul_add(n: Node, g: Node, needs) -> tuple:
    # the bias contribution is recorded before the product's, in the order of add's VJP then matmul's,
    # so a second sweep sums the adjoints in that order and to the bytes of a matmul then an add
    bias = _unbroadcast(g, n.parents[2].shape) if needs[2] else None
    return (*_vjp_matmul(n, g, needs), bias)


def _vjp_maxpool(n: Node, g: Node, needs) -> tuple:
    (x,), k = n.parents, n.meta
    if n.kept is None:  # the argmax indices, built at the first VJP
        n.kept = _pool_indices(x.value, n.value, k)
    return (_record("scatter", (g, x.graph._append("argmax", (x, n), n.kept, k)), x.shape),)


# backward reads every node's VJP from this table, as a recording and a replay read its value from _KERNELS
_VJPS = {
    "add": lambda n, g, needs: tuple(_unbroadcast(g, p.shape) if need else None for p, need in zip(n.parents, needs)),
    "neg": lambda n, g, needs: (neg(g),),
    "mul": _vjp_mul,
    "div": _vjp_div,
    "pow": lambda n, g, needs: (mul(g, mul(power(n.parents[0], n.meta - 1.0), n.meta)),),
    "exp": lambda n, g, needs: (mul(g, n),),
    "log": lambda n, g, needs: (div(g, n.parents[0]),),
    "relu": lambda n, g, needs: (mul(g, n.parents[1]), None),
    "sum": _vjp_sum,
    "broadcast": lambda n, g, needs: (_unbroadcast(g, n.parents[0].shape),),
    "reshape": lambda n, g, needs: (reshape(g, n.parents[0].shape),),
    # the inverse permutation; a negative axis counts from the end
    "permute": lambda n, g, needs: (permute(g, sorted(range(len(n.meta)), key=lambda i: n.meta[i] % len(n.meta))),),
    "matmul": _vjp_matmul,
    "matmul_add": _vjp_matmul_add,
    # each is the other's adjoint through the same index parent
    "take": lambda n, g, needs: (_record("scatter", (g, n.parents[1]), n.parents[0].shape), None),
    "scatter": lambda n, g, needs: (_record("take", (g, n.parents[1])), None),
    "im2col": lambda n, g, needs: (_record("col2im", (g,), (n.parents[0].shape, *n.meta)),),
    "col2im": lambda n, g, needs: (_record("im2col", (g,), n.meta[1:]),),
    "maxpool": _vjp_maxpool,
}


# ---------------------------------------------------------------------------
# composites


def dot(a: Node, b: Node) -> Node:
    if a.value.ndim != 1 or b.value.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"dot expects equal-length vectors, got {a.shape}, {b.shape}")
    return reduce_sum(mul(a, b))


def cosine(a: Node, b: Node) -> Node:
    """Cosine similarity of two vectors; caller guards against zero norms, where it is not differentiable."""
    return div(dot(a, b), mul(power(dot(a, a), 0.5), power(dot(b, b), 0.5)))


# layer geometry -> the window table of one example, which col2im reads
_WINDOW_TABLES: dict[tuple, np.ndarray] = {}
# pool geometry -> (its k*k window offsets, the flat index of each window's first entry in one example)
_POOL_TABLES: dict[tuple, tuple] = {}


def _window_table(c: int, h: int, w: int, kh: int, kw: int) -> np.ndarray:
    """The flat indices of every kh x kw window of one (c, h, w) example, read-only, (c*kh*kw, ho*wo):
    rows in (c, kh, kw) order like the kernel reshape, row-major: the positions im2col copies and col2im sums into."""
    key = (c, h, w, kh, kw)
    if key not in _WINDOW_TABLES:
        ho, wo = h - kh + 1, w - kw + 1
        rows = np.arange(kh)[:, None, None, None] + np.arange(ho)[:, None]
        cols = np.arange(kw)[:, None, None] + np.arange(wo)
        table = (np.arange(c)[:, None, None, None, None] * (h * w) + rows * w + cols).reshape(c * kh * kw, ho * wo)
        table.flags.writeable = False
        _WINDOW_TABLES[key] = table
    return _WINDOW_TABLES[key]


def conv2d(x: Node, weight: Node, bias: Node) -> Node:
    """Valid (no padding), stride-1 2-d convolution of a batched (N, C, H, W) input, plus a per-channel bias:
    the (cout, cin*kh*kw) kernel times each example's column block plus the bias, one stacked matmul_add,
    is contiguous NCHW."""
    if x.value.ndim != 4 or weight.value.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input and kernel, got {x.shape}, {weight.shape}")
    n, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d: input has {cin} channels, kernel expects {cin_w}")
    if kh > h or kw > w:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} larger than input {h}x{w}")
    cols = _record("im2col", (x,), (kh, kw))
    out = matmul_add(reshape(weight, (cout, cin * kh * kw)), cols, reshape(bias, (cout, 1)))
    return reshape(out, (n, cout, h - kh + 1, w - kw + 1))


def _pool_views(x: np.ndarray, k: int) -> list:
    """The k*k strided views of an (n, c, h, w) array, one per window offset in
    row-major order, each (n, c, h // k, w // k); trailing rows/cols are dropped."""
    ho, wo = x.shape[2] // k * k, x.shape[3] // k * k
    return [x[:, :, i:ho:k, j:wo:k] for i in range(k) for j in range(k)]


def _pool_indices(x: np.ndarray, value: np.ndarray, k: int) -> np.ndarray:
    """The flat indices into x of each window's first maximum, (n, c, h // k, w // k):
    what maxpool's VJP scatters through.

    value holds the window maxima. Scanning the views from the last offset
    down, arg ends at the lowest offset whose entry equals the maximum, so ties
    go to the lowest flat index.
    """
    views = _pool_views(x, k)
    arg = np.zeros(value.shape, np.intp)
    for v in views[-2::-1]:
        arg += 1
        arg *= v != value
    n, c, h, w = x.shape
    if (key := (c, h, w, k)) not in _POOL_TABLES:
        flat = np.arange(c * h * w).reshape(1, c, h, w)
        _POOL_TABLES[key] = flat[0, 0, :k, :k].ravel(), _pool_views(flat, k)[0][0].copy()
    offsets, base = _POOL_TABLES[key]
    idx = offsets[arg]
    idx += base
    if n > 1:
        idx += (np.arange(n) * (c * h * w))[:, None, None, None]
    return idx


def maxpool2d(x: Node, k: int) -> Node:
    """Max pooling with window and stride k; trailing rows/cols are dropped."""
    if x.value.ndim != 4:
        raise ShapeError(f"maxpool2d expects a 4-d input, got {x.shape}")
    h, w = x.shape[2:]
    if h < k or w < k:
        raise ShapeError(f"maxpool2d: window {k} larger than input {h}x{w}")
    return _record("maxpool", (x,), k)


def softmax_cross_entropy(logits: Node, labels: np.ndarray) -> Node:
    """Per-example cross-entropy of (N, K) logits against integer labels in [0, K).

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
    shifted = add(logits, _record("logit_max", (logits,), True))
    lse = add(log(reduce_sum(exp(shifted), axis=1)), _record("logit_max", (logits,), False))
    picked = _record("take", (logits, logits.graph._constant(np.arange(n) * k + labels)))
    return add(lse, neg(picked))


# ---------------------------------------------------------------------------
# backward


def backward(root: Node, wrt) -> list[Node]:
    """Gradients of a scalar root with respect to the given nodes.

    The adjoint computations are recorded on the same graph, so the returned
    gradients are nodes and can be fed to ``backward`` again. Targets the
    root does not depend on get an exact zero of the target's shape. A
    target that is not a node of the root's graph is a :class:`GraphError`.
    """
    if root.value.size != 1 or root.value.ndim > 1:
        raise GraphError(f"backward root must be a scalar node, got shape {root.shape}")
    targets = list(wrt)
    graph = root.graph

    # reaches[id]: a target is reachable from this node via parent edges. Ids are
    # list positions in topological order: one pass up marks, one pass down sweeps.
    nodes = graph.nodes[: root.id + 1]
    reaches = bytearray(len(graph.nodes))
    for t in targets:
        if t._graph is not root._graph:
            raise GraphError(f"backward target {t.id} ({t.kind}) is not a node of the root's graph")
        reaches[t.id] = 1
    for n in nodes:
        for p in n.parents:
            if reaches[p.id]:
                reaches[n.id] = n.kind in _VJPS  # a kind with no VJP is a constant to backward
                break

    adjoint: dict[int, Node] = {root.id: graph._constant(np.ones_like(root.value))}
    for n in reversed(nodes):
        g = adjoint.get(n.id)
        if g is None:
            continue
        needs = [reaches[p.id] for p in n.parents]
        if not any(needs):
            continue
        for parent, contribution in zip(n.parents, _VJPS[n.kind](n, g, needs)):
            if contribution is None:
                continue
            held = adjoint.get(parent.id)
            adjoint[parent.id] = contribution if held is None else add(held, contribution)

    out = []
    for t in targets:
        g = adjoint.get(t.id)
        out.append(g if g is not None else graph._constant(np.zeros_like(t.value)))
    return out


def grad(root: Node, target: Node) -> np.ndarray:
    """Value of d(root)/d(target). Convenience wrapper over backward."""
    return backward(root, [target])[0].value


# ---------------------------------------------------------------------------
# record once, replay


class _Program(NamedTuple):
    """A recorded computation as steps over value positions: the inputs come
    first, then one value per step, kernel(*the values at its parent
    positions, meta)."""

    kinds: tuple  # "leaf" or "constant" per input: the check its values pass
    shapes: tuple  # per input
    steps: tuple  # (kernel, parent positions, meta) per step
    outputs: tuple  # the outputs' positions


def _trace(inputs, outputs) -> _Program:
    """The program that recomputes the output nodes from new values of the input nodes.

    It keeps the steps the outputs depend on and no input value: a value
    derived from recorded values, such as a relu mask, is a node over its
    sources, so a replay rebuilds it, and any other leaf must be one of the
    inputs. A constant's step keeps its recorded value.
    """
    nodes = outputs[0].graph.nodes[: max(o.id for o in outputs) + 1]
    needed = bytearray(len(nodes))
    for o in outputs:
        needed[o.id] = 1
    for n in reversed(nodes):
        if needed[n.id]:
            for p in n.parents:
                needed[p.id] = 1
    position = {n.id: i for i, n in enumerate(inputs)}
    steps = []
    for n in nodes:
        if not needed[n.id] or n.id in position:
            continue
        if n.kind == "leaf":
            raise GraphError(f"leaf {n.id} is not an input of the program")
        meta = n.value if n.kind == "const" else n.meta
        steps.append((_KERNELS[n.kind], tuple(position[p.id] for p in n.parents), meta))
        position[n.id] = len(position)
    kinds = tuple("leaf" if n.kind == "leaf" else "constant" for n in inputs)
    return _Program(kinds, tuple(n.shape for n in inputs), tuple(steps), tuple(position[o.id] for o in outputs))


def _replay(program: _Program, values) -> tuple:
    """The program's output values at new input values of its recorded shapes."""
    out = [_finite(v, kind) for v, kind in zip(values, program.kinds, strict=True)]
    for kernel, parents, meta in program.steps:
        out.append(kernel(*[out[i] for i in parents], meta))
    return tuple(out[i] for i in program.outputs)


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
            windows = np.stack(_pool_views(node.parents[0].value, node.meta), axis=-1)
            windows = windows.reshape(-1, windows.shape[-1])
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
