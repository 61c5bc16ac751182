"""Small differentiable classifiers on top of the autodiff graph.

Architectures are declarative layer lists, checked by recording one zero
example through the ops. Parameters live in one flat float64 vector of
``Model.num_params`` entries, so attribution code can treat "the parameters"
as a single differentiation target. Losses are recorded per example;
minibatch training takes the explicit mean over a batched tensor.

The plain-value passes (``Model.logits``, ``loss`` and ``mean_loss``, and
with them ``predict`` and ``accuracy``) share one loop that records at most
``EVAL_ROWS`` examples per graph and keeps one slice's nodes while it records
the next, so their memory peaks at two slices whatever the dataset's size.

Parameters, examples and datasets are immutable values: their arrays lie
on immutable bytes, so no array on a ``.base`` chain can be made writable,
and a dataset's example shares the dataset's row. Attribution ranks one
training set many times at fixed parameters, so a ``Model`` keeps the last
result of each slot (the matrix of ``Model.param_grads``; the query
gradient, G's row norms, solve and RelatIF norms of ``tda``), locked the
same way and keyed by the identity of the values it came from, held weakly.
Every parameter gradient of one example replays its label's recorded
program (``Model.param_grad``): a model records graph nodes only for the
first gradient of each label and input shape.

Every loss is the softmax cross-entropy of the logits against integer
labels, the classification loss whose gradients every attribution reads.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .rng import stream

EVAL_ROWS = 32  # examples per graph in plain-value passes, which bounds their memory


def _read_only(a, dtype) -> np.ndarray:
    """a as dtype on immutable bytes, which numpy never makes writable; an input already on bytes is kept, not copied."""
    a = base = np.asarray(a, dtype=dtype)
    while isinstance(base, np.ndarray):
        base = base.base
    return a if type(base) is bytes else np.frombuffer(a.tobytes(), dtype).reshape(a.shape)


@dataclass(frozen=True)
class Dense:
    in_features: int
    out_features: int


@dataclass(frozen=True)
class Conv2d:
    in_channels: int
    out_channels: int
    kernel: int  # square, stride 1, no padding


@dataclass(frozen=True)
class Relu:
    pass


@dataclass(frozen=True)
class MaxPool:
    kernel: int


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class ArchitectureSpec:
    """Layer list plus input/output contract, checked by recording one zero example through the ops."""

    layers: tuple
    input_shape: tuple
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        for i, layer in enumerate(self.layers):
            sizes = vars(layer) if isinstance(layer, (Dense, Conv2d, MaxPool)) else {}  # each field is a size
            for name, value in sizes.items():
                if value < 1:
                    raise ValueError(f"layer {i} ({type(layer).__name__}): {name} must be at least 1, got {value}")
        model, graph = Model(self), ad.Graph()
        out = model.record_forward(
            graph.constant(np.zeros(model.num_params)), graph.constant(np.zeros((1, *self.input_shape)))
        ).shape[1:]
        if out != (self.num_classes,):
            raise ValueError(f"final layer produces {out}, expected ({self.num_classes},)")


def tiny_cnn(input_shape=(1, 32, 32), num_classes: int = 3) -> ArchitectureSpec:
    """Two conv/pool blocks and a linear head; the default desk-scale model."""
    c, h, w = input_shape
    if min(h, w) < 10:  # conv 3, pool 2, conv 3, pool 2 take a 9 px side to 0 px
        raise ValueError(f"tiny_cnn input {h}x{w} is too small: each side must be at least 10 px")
    h2 = ((h - 2) // 2 - 2) // 2
    w2 = ((w - 2) // 2 - 2) // 2
    layers = (
        Conv2d(c, 8, 3),
        Relu(),
        MaxPool(2),
        Conv2d(8, 16, 3),
        Relu(),
        MaxPool(2),
        Flatten(),
        Dense(16 * h2 * w2, num_classes),
    )
    return ArchitectureSpec(layers, input_shape, num_classes)


@dataclass(frozen=True)
class ParamSlice:
    layer: int
    name: str  # "weight" or "bias"
    offset: int
    shape: tuple


@dataclass(frozen=True)
class ParamVector:
    """All parameters of a model, flattened into one read-only float64 vector."""

    data: np.ndarray
    layout: tuple[ParamSlice, ...]

    def __post_init__(self):
        object.__setattr__(self, "data", _read_only(self.data, np.float64))
        if self.data.ndim != 1:
            raise ValueError("parameter data must be a flat vector")

    @property
    def size(self) -> int:
        return self.data.size


def _layout_for(arch: ArchitectureSpec) -> tuple[ParamSlice, ...]:
    slices = []
    offset = 0
    for i, layer in enumerate(arch.layers):
        if isinstance(layer, Dense):
            shapes = [("weight", (layer.in_features, layer.out_features)), ("bias", (layer.out_features,))]
        elif isinstance(layer, Conv2d):
            shapes = [
                ("weight", (layer.out_channels, layer.in_channels, layer.kernel, layer.kernel)),
                ("bias", (layer.out_channels,)),
            ]
        else:
            continue
        for name, shape in shapes:
            slices.append(ParamSlice(i, name, offset, shape))
            offset += int(np.prod(shape))
    return tuple(slices)


def init_params(arch: ArchitectureSpec, seed: int) -> ParamVector:
    """Uniform fan-balanced weight init (limit sqrt(6/(fan_in+fan_out))), zero biases."""
    layout = _layout_for(arch)
    total = sum(int(np.prod(s.shape)) for s in layout)
    data = np.zeros(total)
    rng = stream(seed, "init")
    for s in layout:
        if s.name != "weight":
            continue
        # fan_in + fan_out: in + out of a dense (in, out) weight, (in + out) k^2 of a conv (out, in, k, k) one
        limit = np.sqrt(6.0 / ((s.shape[0] + s.shape[1]) * int(np.prod(s.shape[2:]))))
        size = int(np.prod(s.shape))
        data[s.offset : s.offset + size] = rng.uniform(-limit, limit, size=size)
    return ParamVector(data, layout)


@dataclass(frozen=True)
class LabeledExample:
    x: np.ndarray
    y: int

    def __post_init__(self):
        object.__setattr__(self, "x", _read_only(self.x, np.float64))
        object.__setattr__(self, "y", int(self.y))
        if not np.all(np.isfinite(self.x)):
            raise ValueError("example contains non-finite values")
        if self.x.ndim == 3 and (self.x.min() < 0.0 or self.x.max() > 1.0):
            raise ValueError("image values must lie in [0, 1]")
        if self.y < 0:
            raise ValueError("label must be non-negative")


@dataclass(frozen=True)
class Dataset:
    """Batched examples: X is (N, ...) float64, y is (N,) int64, both read-only copies unless locked already."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X", _read_only(self.X, np.float64))
        object.__setattr__(self, "y", _read_only(self.y, np.int64))
        if len(self.X) != len(self.y):
            raise ValueError(f"{len(self.X)} examples but {len(self.y)} labels")

    def __len__(self) -> int:
        return len(self.y)

    def example(self, i: int) -> LabeledExample:
        return LabeledExample(self.X[i], int(self.y[i]))

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices)
        if indices.size == 0:
            indices = indices.astype(np.intp)  # an empty list or range is a float array
        return Dataset(self.X[indices], self.y[indices])

    def mean_pixel(self) -> np.ndarray:
        """Per-channel mean over all examples and positions (images only)."""
        if self.X.ndim != 4:
            raise ValueError("mean_pixel is defined for image datasets")
        return self.X.mean(axis=(0, 2, 3))


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.05
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0
    # per-epoch multiplicative decay; 1.0 keeps the rate constant
    lr_decay: float = 1.0

    def __post_init__(self):
        if not 0 < self.lr < np.inf:
            raise ValueError("learning rate must be positive and finite")
        if not 0 < self.lr_decay <= 1:
            raise ValueError("lr_decay must lie in (0, 1]")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("bad epoch or batch size")


@dataclass
class TrainHistory:
    losses: list = field(default_factory=list)
    accuracies: list = field(default_factory=list)


class Model:
    """Recording and evaluation helpers for one architecture; every plain-value pass runs ``_evaluate``."""

    def __init__(self, arch: ArchitectureSpec):
        self.arch = arch
        self.layout = _layout_for(arch)
        self.num_params = sum(int(np.prod(s.shape)) for s in self.layout)
        self._slices = {  # (layer, name) -> (flat indices, shape)
            (s.layer, s.name): (np.arange(s.offset, s.offset + int(np.prod(s.shape))), s.shape)
            for s in self.layout
        }
        self._kept = {}  # slot -> (weak references to the sources, value, read-only result); see _keep
        self._programs = {}  # label -> its examples' recorded gradient program; see param_grad

    def _param(self, theta: ad.Node, layer: int, name: str) -> ad.Node:
        index, shape = self._slices[(layer, name)]  # the model's own layout: in range
        return ad.reshape(ad._take(theta, index), shape)

    def record_forward(self, theta: ad.Node, X: ad.Node) -> ad.Node:
        """Record logits for a batched input.

        theta is the flat parameter node, X is (N, ...) matching input_shape.
        """
        if theta.shape != (self.num_params,):
            raise ad.ShapeError(f"parameter vector of shape {theta.shape}, expected ({self.num_params},)")
        if X.shape[1:] != self.arch.input_shape:
            raise ad.ShapeError(
                f"input shape {X.shape[1:]} does not match {self.arch.input_shape}"
            )
        h = X
        for i, layer in enumerate(self.arch.layers):
            if isinstance(layer, (Dense, Conv2d)):  # theta's reads: weight, bias, in layout order
                w, b = self._param(theta, i, "weight"), self._param(theta, i, "bias")
                h = ad.conv2d(h, w, b) if isinstance(layer, Conv2d) else ad.add(ad.matmul(h, w), b)
            elif isinstance(layer, Relu):
                h = ad.relu(h)
            elif isinstance(layer, MaxPool):
                h = ad.maxpool2d(h, layer.kernel)
            elif isinstance(layer, Flatten):
                h = ad.reshape(h, (h.shape[0], -1))
            else:
                raise TypeError(f"unknown layer {layer!r}")
        return h

    def record_batch_loss(self, theta: ad.Node, X: ad.Node, labels, kind: str = "cross-entropy") -> ad.Node:
        """Mean loss over a batch, as a scalar node."""
        per = self.record_per_example_loss(theta, X, labels, kind)
        return ad.div(ad.reduce_sum(per), float(per.shape[0]))

    def record_per_example_loss(self, theta: ad.Node, X: ad.Node, labels, kind: str = "cross-entropy") -> ad.Node:
        """Per-example cross-entropy of a batched input, as an (N,) node; ``kind`` names the one loss."""
        if kind != "cross-entropy":
            raise ValueError(f"unknown loss {kind!r}; the one loss is 'cross-entropy'")
        return ad.softmax_cross_entropy(self.record_forward(theta, X), labels)

    def record_example_loss(self, theta: ad.Node, x: ad.Node, label: int, kind: str = "cross-entropy") -> ad.Node:
        """Scalar loss of a single example whose input node has no batch axis."""
        xb = ad.reshape(x, (1,) + self.arch.input_shape)
        per = self.record_per_example_loss(theta, xb, np.array([label]), kind)
        return ad.reshape(per, ())

    # -- plain-value conveniences -------------------------------------------

    def _evaluate(self, params: ParamVector, X: np.ndarray, labels=None) -> np.ndarray:
        """Logits of X, or given labels its per-example losses, recorded EVAL_ROWS rows per graph."""
        out = np.empty((len(X), self.arch.num_classes) if labels is None else len(X))
        for start in range(0, len(X), EVAL_ROWS):
            rows = slice(start, start + EVAL_ROWS)
            # `result` holds the last slice's nodes until this one is recorded, as train's `loss`
            # does, so malloc reuses their memory and conv2d their window batch: two slices peak
            graph = ad.Graph()
            theta, X_rows = graph.constant(params.data), graph.constant(X[rows])
            result = (self.record_forward(theta, X_rows) if labels is None
                      else self.record_per_example_loss(theta, X_rows, labels[rows]))
            out[rows] = result.value
        return out

    def logits(self, params: ParamVector, X: np.ndarray) -> np.ndarray:
        return self._evaluate(params, X)

    def predict(self, params: ParamVector, X: np.ndarray) -> np.ndarray:
        return self.logits(params, X).argmax(axis=1)

    def accuracy(self, params: ParamVector, dataset: Dataset) -> float:
        if len(dataset) == 0:
            raise ValueError("accuracy of an empty dataset is undefined")
        return float(np.mean(self.predict(params, dataset.X) == dataset.y))

    def loss(self, params: ParamVector, example: LabeledExample) -> float:
        return float(self._evaluate(params, example.x.reshape(1, *self.arch.input_shape), np.array([example.y]))[0])

    def mean_loss(self, params: ParamVector, dataset: Dataset) -> float:
        if len(dataset) == 0:
            raise ValueError("mean loss of an empty dataset is undefined")
        return float(np.sum(self._evaluate(params, dataset.X, dataset.y)) / len(dataset))

    def param_grad(self, params: ParamVector, example: LabeledExample) -> np.ndarray:
        """Flat gradient of one example's loss with respect to the parameters.

        The first call for a label records the forward and backward through
        the ops, and their checks, and the model keeps the result as that
        label's program. A later call with the same label and shapes replays
        it on the new values, with the same bytes and the same finiteness and
        logit checks; a new label or shape records again.
        """
        program = self._programs.get(example.y)
        if program is not None and program.shapes == (params.data.shape, example.x.shape):
            return ad._replay(program, (params.data, example.x))
        graph = ad.Graph()
        theta, x = graph.leaf(params.data), graph.constant(example.x)
        (gradient,) = ad.backward(self.record_example_loss(theta, x, example.y), [theta])
        self._programs[example.y] = ad._trace((theta, x), gradient)
        return gradient.value

    def param_grads(self, params: ParamVector, dataset: Dataset) -> np.ndarray:
        """(N, p) matrix whose row i is ``param_grad`` of example i, read-only.

        The rows come from the same ``param_grad`` calls, in order, so they
        are bitwise equal to them. The model keeps the last matrix for these
        ``params`` and ``dataset`` objects: a repeat call returns it, other
        objects (even of equal content) rebuild it, and the rebuild or the
        model's end frees it.
        """
        def build():
            G = np.empty((len(dataset), self.num_params))
            for i in range(len(dataset)):
                G[i] = self.param_grad(params, dataset.example(i))
            return G
        return self._keep("grads", build, params, dataset)

    def _keep(self, slot: str, build, *sources, value=None) -> np.ndarray:
        """build(), read-only, kept in ``slot`` while each source is the same object (held weakly) and value equal."""
        kept = self._kept.get(slot)
        if kept and kept[1] == value and all(ref() is s for ref, s in zip(kept[0], sources)):
            return kept[2]
        self._kept.pop(slot, None)  # free the stale result before the build
        result = _read_only(build(), np.float64)
        self._kept[slot] = ([weakref.ref(s) for s in sources], value, result)
        return result


def sgd_step(params: ParamVector, gradient: np.ndarray, lr: float) -> ParamVector:
    """One plain gradient step; returns a new vector, input untouched."""
    gradient = np.asarray(gradient, dtype=np.float64)
    if gradient.shape != params.data.shape:
        raise ValueError(f"gradient shape {gradient.shape} != params {params.data.shape}")
    return ParamVector(params.data - lr * gradient, params.layout)


def train(dataset: Dataset, arch: ArchitectureSpec, config: TrainConfig, *, epoch_accuracy: bool = True):
    """Minibatch SGD from a fresh init; deterministic in config.seed.

    Returns (params, history) where history holds per-epoch mean training
    loss and, unless epoch_accuracy is False, full-set accuracy after each
    epoch. That pass is a large share of an epoch's time, so callers that do
    not read it turn it off; the parameters do not depend on it. An empty
    dataset is rejected unless config.epochs is 0.
    """
    n = len(dataset)
    if n == 0 and config.epochs >= 1:
        raise ValueError("cannot train on an empty dataset")
    model = Model(arch)
    params = init_params(arch, config.seed)
    history = TrainHistory()
    for epoch in range(config.epochs):
        lr = config.lr * config.lr_decay**epoch
        order = stream(config.seed, f"shuffle/epoch{epoch}").permutation(n)
        seen = 0
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            # `loss` keeps the last step's graph alive until this one is
            # recorded, so malloc reuses its memory; freed first, glibc trims
            # the heap top and every step page-faults its arrays anew
            graph = ad.Graph()
            theta = graph.leaf(params.data)
            loss = model.record_batch_loss(theta, graph.constant(dataset.X[batch]), dataset.y[batch])
            gradient = ad.grad(loss, theta)
            params = sgd_step(params, gradient, lr)
            loss_sum += float(loss.value) * len(batch)
            seen += len(batch)
        del graph, theta, loss  # the last step's graph, before the accuracy pass
        history.losses.append(loss_sum / seen)
        if epoch_accuracy:
            history.accuracies.append(model.accuracy(params, dataset))
    return params, history
