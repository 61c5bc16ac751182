"""Pixel-level attribution: which parts of a training image drive its score.

The core quantity is the gradient, with respect to the *training image*, of
the grad-cos attribution score between that training example and a fixed
test example. It is computed by differentiating through the recorded
backward pass: the first reverse sweep produces the parameter gradient of
the training loss as graph nodes, the cosine against the (constant) test
gradient is recorded on top, and a second reverse sweep reaches the pixels.

Noise-averaged maps follow the usual denoising recipe: resample the map at
gaussian-perturbed copies of the training image and average. Sample i draws
its noise from its own child seed and the samples are summed in index order,
so a map depends only on its seed. The noiseless map is the sigma = 0,
one-sample case of the same function.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .models import LabeledExample, Model, ParamVector
from .rng import stream
from .tda import _checked_norm, query_gradient

AGGREGATION_MODES = ("abs-sum", "l2")


@dataclass
class SaliencyMap:
    """Signed per-input-entry attribution values plus provenance."""

    values: np.ndarray
    train_index: int = -1
    test_index: int = -1
    method: str = "tfa"
    sigma: float = 0.0
    samples: int = 1
    seed: int | None = None

    @property
    def shape(self):
        return self.values.shape


def _pair_score_gradient(
    model: Model,
    params: ParamVector,
    x_train: np.ndarray,
    y_train: int,
    g_test: np.ndarray,
    kind: str,
) -> np.ndarray:
    """d/dx_train of cos(grad_theta loss(x_train), g_test)."""
    graph = ad.Graph()
    theta = graph.leaf(params.data)
    x = graph.leaf(x_train)
    loss = model.record_example_loss(theta, x, y_train, kind)
    (g_train,) = ad.backward(loss, [theta])
    _checked_norm(g_train.value, "train")
    score = ad.cosine(g_train, graph.constant(g_test))
    return ad.grad(score, x)


def tfa_saliency(
    model: Model,
    params: ParamVector,
    z_train: LabeledExample,
    z_test: LabeledExample,
    kind: str = "cross-entropy",
    *,
    train_index: int = -1,
    test_index: int = -1,
) -> SaliencyMap:
    """Input-gradient of the train/test grad-cos score, signed, same shape
    as the training input: smoothgrad_saliency at sigma 0 with one sample."""
    sal = smoothgrad_saliency(
        model, params, z_train, z_test, sigma=0.0, samples=1, seed=None, kind=kind,
        train_index=train_index, test_index=test_index,
    )
    return replace(sal, method="tfa")


def smoothgrad_saliency(
    model: Model,
    params: ParamVector,
    z_train: LabeledExample,
    z_test: LabeledExample,
    sigma: float,
    samples: int,
    seed: int | None,
    kind: str = "cross-entropy",
    *,
    train_index: int = -1,
    test_index: int = -1,
    workers: int = 1,
) -> SaliencyMap:
    """Average the saliency over gaussian-perturbed copies of the train image.

    sigma is the noise standard deviation in input units; sample i draws its
    noise from the child seed (seed, "smoothgrad/i"), and the samples are
    summed in index order. sigma = 0 reproduces the noiseless map exactly,
    bit for bit, and draws no noise. workers is accepted for existing callers
    and has no effect: the samples run one after another, since a thread
    pool measured slower than that on the tiny CNN.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if samples < 1:
        raise ValueError("need at least one sample")
    g_test = query_gradient(model, params, z_test, kind)
    _checked_norm(g_test, "test")
    if sigma == 0.0:
        values = _pair_score_gradient(model, params, z_train.x, z_train.y, g_test, kind)
    else:
        values = np.zeros_like(z_train.x)
        for i in range(samples):
            noise = stream(seed, f"smoothgrad/{i}").normal(0.0, sigma, size=z_train.x.shape)
            values += _pair_score_gradient(
                model, params, z_train.x + noise, z_train.y, g_test, kind
            )
        values /= samples
    return SaliencyMap(values, train_index, test_index, "smoothgrad", sigma, samples, seed)


def channel_aggregate(saliency, mode: str = "abs-sum") -> np.ndarray:
    """Collapse a signed (C, H, W) map to a non-negative (H, W) grid."""
    values = saliency.values if isinstance(saliency, SaliencyMap) else np.asarray(saliency)
    if values.ndim == 2:
        values = values[None]
    if values.ndim != 3:
        raise ValueError(f"expected a (C, H, W) map, got shape {values.shape}")
    if mode == "abs-sum":
        return np.abs(values).sum(axis=0)
    if mode == "l2":
        return np.sqrt((values**2).sum(axis=0))
    raise ValueError(f"mode must be one of {AGGREGATION_MODES}")


def bilinear_upsample(grid: np.ndarray, out_shape) -> np.ndarray:
    """Corner-aligned bilinear interpolation of a 2-d grid."""
    grid = np.asarray(grid, dtype=np.float64)
    h, w = grid.shape
    oh, ow = out_shape
    rows = np.linspace(0.0, h - 1.0, oh) if oh > 1 else np.zeros(1)
    cols = np.linspace(0.0, w - 1.0, ow) if ow > 1 else np.zeros(1)
    r0 = np.clip(np.floor(rows).astype(int), 0, max(h - 2, 0))
    c0 = np.clip(np.floor(cols).astype(int), 0, max(w - 2, 0))
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    fr = (rows - r0)[:, None]
    fc = (cols - c0)[None, :]
    top = grid[np.ix_(r0, c0)] * (1 - fc) + grid[np.ix_(r0, c1)] * fc
    bottom = grid[np.ix_(r1, c0)] * (1 - fc) + grid[np.ix_(r1, c1)] * fc
    return top * (1 - fr) + bottom * fr


def layer_saliency(
    model: Model,
    params: ParamVector,
    z_train: LabeledExample,
    z_test: LabeledExample,
    layer_index: int,
    kind: str = "cross-entropy",
) -> np.ndarray:
    """Attribution at an internal spatial layer, upsampled to input size.

    The score is the cosine between the test loss gradient at the test
    image's activations and the train loss gradient at the train image's
    activations, both taken at the chosen layer. Its gradient with respect
    to the train activations is channel-averaged in absolute value and
    bilinearly upsampled (corner-aligned) to the input resolution.
    """
    if not 0 <= layer_index < len(model.arch.layers):
        raise IndexError(f"layer index {layer_index} out of range")
    shape = model.arch.layer_shapes()[layer_index]
    if len(shape) != 3:
        raise ValueError(
            f"layer {layer_index} produces shape {shape}; layer saliency needs a "
            "spatial (C, H, W) activation"
        )

    def activation_grad(example: LabeledExample):
        graph = ad.Graph()
        theta = graph.constant(params.data)
        x = graph.constant(example.x[None])
        logits, acts = model.record_forward(theta, x)
        act = acts[layer_index]
        per = model.record_logits_loss(logits, np.array([example.y]), kind)
        return graph, act, ad.backward(ad.reshape(per, ()), [act])[0]

    _, _, g_test_act = activation_grad(z_test)
    g_test_flat = g_test_act.value.ravel()
    _checked_norm(g_test_flat, "test")

    graph, act, g_train_act = activation_grad(z_train)
    _checked_norm(g_train_act.value.ravel(), "train")
    score = ad.cosine(
        ad.reshape(g_train_act, (-1,)), graph.constant(g_test_flat)
    )
    grad_act = ad.backward(score, [act])[0].value[0]  # (C, H', W')
    grid = np.abs(grad_act).mean(axis=0)
    return bilinear_upsample(grid, model.arch.input_shape[1:])
