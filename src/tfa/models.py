"""Small differentiable classifiers on top of the autodiff graph.

Architectures are declarative layer lists; parameters live in one flat
float64 vector so attribution code can treat "the parameters" as a single
differentiation target. Losses are recorded per example; minibatch training
takes the explicit mean over a batched tensor.

The plain-value passes (``Model.logits`` and ``Model.mean_loss``, and with
them ``predict`` and ``accuracy``) record at most ``EVAL_ROWS`` examples per
graph, so their memory stays flat in the dataset size.

Attribution ranks one training set many times at fixed parameters, so a
``Model`` keeps the last matrix of per-example training gradients that
``Model.param_grads`` built, and the last query gradient of
``tda.query_gradient``. Each store holds one entry, keyed by the loss kind and
the shapes and bytes of the parameters, inputs and labels; it lives and dies
with the ``Model`` instance, and the array it hands out is read-only.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .rng import stream

LOSS_KINDS = ("cross-entropy", "mse")
EVAL_ROWS = 32  # examples per graph in plain-value passes, which bounds their memory


@dataclass(frozen=True)
class Dense:
    in_features: int
    out_features: int


@dataclass(frozen=True)
class Conv2d:
    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1


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
    """Layer list plus input/output contract; shapes are validated eagerly."""

    layers: tuple
    input_shape: tuple
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        out = self.layer_shapes()[-1]
        if out != (self.num_classes,):
            raise ValueError(f"final layer produces {out}, expected ({self.num_classes},)")

    def layer_shapes(self) -> list[tuple]:
        """Per-example shape after each layer, starting from input_shape."""
        shape = self.input_shape
        shapes = []
        for i, layer in enumerate(self.layers):
            if isinstance(layer, Dense):
                if len(shape) != 1 or shape[0] != layer.in_features:
                    raise ValueError(f"layer {i}: dense expects ({layer.in_features},), got {shape}")
                shape = (layer.out_features,)
            elif isinstance(layer, Conv2d):
                if len(shape) != 3 or shape[0] != layer.in_channels:
                    raise ValueError(f"layer {i}: conv expects {layer.in_channels} channels, got {shape}")
                c, h, w = shape
                if layer.kernel > h or layer.kernel > w:
                    raise ValueError(f"layer {i}: kernel {layer.kernel} larger than input {h}x{w}")
                ho = (h - layer.kernel) // layer.stride + 1
                wo = (w - layer.kernel) // layer.stride + 1
                shape = (layer.out_channels, ho, wo)
            elif isinstance(layer, MaxPool):
                if len(shape) != 3:
                    raise ValueError(f"layer {i}: maxpool needs a spatial input, got {shape}")
                c, h, w = shape
                if h < layer.kernel or w < layer.kernel:
                    raise ValueError(f"layer {i}: pool window {layer.kernel} larger than {h}x{w}")
                shape = (c, h // layer.kernel, w // layer.kernel)
            elif isinstance(layer, Flatten):
                shape = (int(np.prod(shape)),)
            elif isinstance(layer, Relu):
                pass
            else:
                raise TypeError(f"unknown layer {layer!r}")
            shapes.append(shape)
        return shapes


def tiny_cnn(input_shape=(1, 32, 32), num_classes: int = 3) -> ArchitectureSpec:
    """Two conv/pool blocks and a linear head; the default desk-scale model."""
    c, h, w = input_shape
    h2 = ((h - 2) // 2 - 2) // 2
    w2 = ((w - 2) // 2 - 2) // 2
    if h2 < 1 or w2 < 1:
        raise ValueError(f"input {h}x{w} is too small for the two-block architecture")
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


@dataclass
class ParamVector:
    """All parameters of a model, flattened into one float64 vector."""

    data: np.ndarray
    layout: tuple[ParamSlice, ...]

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
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
        layer = arch.layers[s.layer]
        if isinstance(layer, Dense):
            fan_in, fan_out = layer.in_features, layer.out_features
        else:
            fan_in = layer.in_channels * layer.kernel**2
            fan_out = layer.out_channels * layer.kernel**2
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        size = int(np.prod(s.shape))
        data[s.offset : s.offset + size] = rng.uniform(-limit, limit, size=size)
    return ParamVector(data, layout)


@dataclass(frozen=True)
class LabeledExample:
    x: np.ndarray
    y: int

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.float64))
        object.__setattr__(self, "y", int(self.y))
        if not np.all(np.isfinite(self.x)):
            raise ValueError("example contains non-finite values")
        if self.x.ndim == 3 and (self.x.min() < 0.0 or self.x.max() > 1.0):
            raise ValueError("image values must lie in [0, 1]")
        if self.y < 0:
            raise ValueError("label must be non-negative")


@dataclass
class Dataset:
    """Batched examples: X is (N, ...), y is (N,) int."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
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
    loss: str = "cross-entropy"
    # per-epoch multiplicative decay; 1.0 keeps the rate constant
    lr_decay: float = 1.0

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0 < self.lr_decay <= 1:
            raise ValueError("lr_decay must lie in (0, 1]")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("bad epoch or batch size")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss must be one of {LOSS_KINDS}")


@dataclass
class TrainHistory:
    losses: list = field(default_factory=list)
    accuracies: list = field(default_factory=list)


class Model:
    """Recording and evaluation helpers for one architecture."""

    def __init__(self, arch: ArchitectureSpec):
        self.arch = arch
        self.layout = _layout_for(arch)
        self.num_params = sum(int(np.prod(s.shape)) for s in self.layout)
        self._slice_index = {
            (s.layer, s.name): np.arange(s.offset, s.offset + int(np.prod(s.shape)))
            for s in self.layout
        }
        self._kept = {}  # slot -> (content key, read-only array); see _keep

    def _param(self, theta: ad.Node, layer: int, name: str, shape: tuple) -> ad.Node:
        return ad.reshape(ad.take(theta, self._slice_index[(layer, name)]), shape)

    def record_forward(self, theta: ad.Node, X: ad.Node):
        """Record logits for a batched input; also returns per-layer activations.

        theta is the flat parameter node, X is (N, ...) matching input_shape.
        """
        if X.shape[1:] != self.arch.input_shape:
            raise ad.ShapeError(
                f"input shape {X.shape[1:]} does not match {self.arch.input_shape}"
            )
        h = X
        activations = []
        for i, layer in enumerate(self.arch.layers):
            if isinstance(layer, Dense):
                w = self._param(theta, i, "weight", (layer.in_features, layer.out_features))
                b = self._param(theta, i, "bias", (layer.out_features,))
                h = ad.add(ad.matmul(h, w), b)
            elif isinstance(layer, Conv2d):
                w = self._param(
                    theta, i, "weight",
                    (layer.out_channels, layer.in_channels, layer.kernel, layer.kernel),
                )
                b = self._param(theta, i, "bias", (layer.out_channels,))
                h = ad.conv2d(h, w, b, stride=layer.stride)
            elif isinstance(layer, Relu):
                h = ad.relu(h)
            elif isinstance(layer, MaxPool):
                h = ad.maxpool2d(h, layer.kernel)
            elif isinstance(layer, Flatten):
                h = ad.reshape(h, (h.shape[0], -1))
            activations.append(h)
        return h, activations

    def record_batch_loss(self, theta: ad.Node, X: ad.Node, labels, kind: str) -> ad.Node:
        """Mean loss over a batch, as a scalar node."""
        per = self.record_per_example_loss(theta, X, labels, kind)
        return ad.div(ad.reduce_sum(per), float(per.shape[0]))

    def record_per_example_loss(self, theta: ad.Node, X: ad.Node, labels, kind: str) -> ad.Node:
        logits, _ = self.record_forward(theta, X)
        return self.record_logits_loss(logits, labels, kind)

    def record_logits_loss(self, logits: ad.Node, labels, kind: str) -> ad.Node:
        """Per-example loss of recorded (N, K) logits; the one switch over LOSS_KINDS."""
        if kind == "cross-entropy":
            return ad.softmax_cross_entropy(logits, labels)
        if kind == "mse":
            return ad.mse_loss(logits, labels, self.arch.num_classes)
        raise ValueError(f"loss must be one of {LOSS_KINDS}")

    def record_example_loss(self, theta: ad.Node, x: ad.Node, label: int, kind: str) -> ad.Node:
        """Scalar loss of a single example whose input node has no batch axis."""
        xb = ad.reshape(x, (1,) + self.arch.input_shape)
        per = self.record_per_example_loss(theta, xb, np.array([label]), kind)
        return ad.reshape(per, ())

    # -- plain-value conveniences -------------------------------------------

    def logits(self, params: ParamVector, X: np.ndarray) -> np.ndarray:
        out = np.empty((len(X), self.arch.num_classes))
        for start in range(0, len(X), EVAL_ROWS):
            rows = slice(start, start + EVAL_ROWS)
            graph = ad.Graph()
            node, _ = self.record_forward(graph.constant(params.data), graph.constant(X[rows]))
            out[rows] = node.value
        return out

    def predict(self, params: ParamVector, X: np.ndarray) -> np.ndarray:
        return self.logits(params, X).argmax(axis=1)

    def predict_one(self, params: ParamVector, x: np.ndarray) -> int:
        return int(self.predict(params, np.asarray(x)[None])[0])

    def accuracy(self, params: ParamVector, dataset: Dataset) -> float:
        if len(dataset) == 0:
            raise ValueError("accuracy of an empty dataset is undefined")
        return float(np.mean(self.predict(params, dataset.X) == dataset.y))

    def loss(self, params: ParamVector, example: LabeledExample, kind: str = "cross-entropy") -> float:
        graph = ad.Graph()
        node = self.record_example_loss(
            graph.constant(params.data), graph.constant(example.x), example.y, kind
        )
        return float(node.value)

    def mean_loss(self, params: ParamVector, dataset: Dataset, kind: str = "cross-entropy") -> float:
        n = len(dataset)
        if n == 0:
            raise ValueError("mean loss of an empty dataset is undefined")
        per = np.empty(n)
        for start in range(0, n, EVAL_ROWS):
            rows = slice(start, start + EVAL_ROWS)
            graph = ad.Graph()
            per[rows] = self.record_per_example_loss(
                graph.constant(params.data), graph.constant(dataset.X[rows]), dataset.y[rows], kind
            ).value
        return float(np.sum(per) / n)

    def param_grad(self, params: ParamVector, example: LabeledExample, kind: str = "cross-entropy") -> np.ndarray:
        """Flat gradient of one example's loss with respect to the parameters."""
        graph = ad.Graph()
        theta = graph.leaf(params.data)
        loss = self.record_example_loss(theta, graph.constant(example.x), example.y, kind)
        return ad.grad(loss, theta)

    def param_grads(self, params: ParamVector, dataset: Dataset, kind: str = "cross-entropy") -> np.ndarray:
        """(N, p) matrix whose row i is ``param_grad`` of example i, read-only.

        The rows come from the same ``param_grad`` calls, in order, so they
        are bitwise equal to them. The model keeps the last matrix, keyed by
        ``kind`` and the bytes of ``params.data``, ``dataset.X`` and
        ``dataset.y``: a repeat call returns the same matrix, any change to
        those arrays, in place or not, rebuilds it, and the rebuild or the
        model's end frees it.
        """
        def build():
            G = np.empty((len(dataset), self.num_params))
            for i in range(len(dataset)):
                G[i] = self.param_grad(params, dataset.example(i), kind)
            return G
        return self._keep("grads", build, kind, params.data, dataset.X, dataset.y)

    def _keep(self, slot: str, build, kind: str, *arrays) -> np.ndarray:
        """build() made read-only and kept in ``slot``, keyed by ``kind`` and the shapes and bytes of ``arrays``."""
        digest = hashlib.blake2b()
        for a in arrays:
            digest.update(np.ascontiguousarray(a))
        key = (kind, *(np.shape(a) for a in arrays), digest.digest())
        if slot in self._kept and self._kept[slot][0] == key:
            return self._kept[slot][1]
        self._kept.pop(slot, None)  # free the stale array before the build
        value = build()
        value.flags.writeable = False
        self._kept[slot] = (key, value)
        return value


def sgd_step(params: ParamVector, gradient: np.ndarray, lr: float) -> ParamVector:
    """One plain gradient step; returns a new vector, input untouched."""
    gradient = np.asarray(gradient, dtype=np.float64)
    if gradient.shape != params.data.shape:
        raise ValueError(f"gradient shape {gradient.shape} != params {params.data.shape}")
    return ParamVector(params.data - lr * gradient, params.layout)


def train(dataset: Dataset, arch: ArchitectureSpec, config: TrainConfig):
    """Minibatch SGD from a fresh init; deterministic in config.seed.

    Returns (params, history) where history holds per-epoch mean training
    loss and full-set accuracy.
    """
    model = Model(arch)
    params = init_params(arch, config.seed)
    history = TrainHistory()
    n = len(dataset)
    for epoch in range(config.epochs):
        lr = config.lr * config.lr_decay**epoch
        order = stream(config.seed, f"shuffle/epoch{epoch}").permutation(n)
        seen = 0
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            graph = ad.Graph()
            theta = graph.leaf(params.data)
            loss = model.record_batch_loss(
                theta, graph.constant(dataset.X[batch]), dataset.y[batch], config.loss
            )
            gradient = ad.grad(loss, theta)
            params = sgd_step(params, gradient, lr)
            loss_sum += float(loss.value) * len(batch)
            seen += len(batch)
        history.losses.append(loss_sum / seen)
        history.accuracies.append(model.accuracy(params, dataset))
    return params, history
