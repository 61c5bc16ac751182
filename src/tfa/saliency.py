"""Pixel-level attribution: which parts of a training image drive its score.

The core quantity is the gradient, with respect to the *training image*, of
the grad-cos attribution score between that training example and a fixed
test example. It is computed by differentiating through the recorded
backward pass: the first reverse sweep produces the parameter gradient of
the training loss as graph nodes, the cosine against the (constant) test
gradient is recorded on top, and a second reverse sweep reaches the pixels.

Noise-averaged maps follow the usual denoising method: resample the map at
gaussian-perturbed copies of the training image and average. Sample i draws
its noise from its own child seed and the samples are summed in index order,
so a map depends only on its seed. Every sample replays the model's
program for its training label, recorded at the first sample of that label
and input shape. The noiseless map is the sigma = 0,
one-sample case of the same function. A SaliencyMap holds the values alone;
recording what shaped them is the caller's (the CLI manifests do it).
channel_aggregate collapses a map to the non-negative pixel grid that the
artifacts and harnesses read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .models import LabeledExample, Model, ParamVector
from .rng import stream
from .tda import _checked_norm, query_gradient


@dataclass
class SaliencyMap:
    """Signed attribution values, one per entry of the training input."""

    values: np.ndarray


def _pair_score_gradient(
    model: Model,
    params: ParamVector,
    x_train: np.ndarray,
    y_train: int,
    g_test: np.ndarray,
) -> np.ndarray:
    """d/dx_train of cos(grad_theta loss(x_train), g_test), replayed from the model's program for y_train."""
    def record(graph, theta, x, g):
        theta, x, g = graph.leaf(theta), graph.leaf(x), graph.constant(g)
        (g_train,) = ad.backward(model.record_example_loss(theta, x, y_train), [theta])
        return (theta, x, g), (*ad.backward(ad.cosine(g_train, g), [x]), g_train)
    with np.errstate(divide="ignore", invalid="ignore"):  # a degenerate g_train raises below, not a warning
        d_x, g_train = model._replayed(("pair", y_train), record, params.data, x_train, g_test)
    _checked_norm(g_train, "train")
    return d_x


def tfa_saliency(
    model: Model,
    params: ParamVector,
    z_train: LabeledExample,
    z_test: LabeledExample,
) -> SaliencyMap:
    """Input-gradient of the train/test grad-cos score, signed, same shape
    as the training input: smoothgrad_saliency at sigma 0 with one sample."""
    return smoothgrad_saliency(model, params, z_train, z_test, sigma=0.0, samples=1, seed=None)


def smoothgrad_saliency(
    model: Model,
    params: ParamVector,
    z_train: LabeledExample,
    z_test: LabeledExample,
    sigma: float,
    samples: int,
    seed: int | None,
    *,
    workers: int = 1,
) -> SaliencyMap:
    """Average the saliency over gaussian-perturbed copies of the train image.

    sigma is the noise standard deviation in input units; sample i draws its
    noise from the child seed (seed, "smoothgrad/i"), and the samples are
    summed in index order. sigma = 0 reproduces the noiseless map exactly,
    bit for bit: it is one sample and draws no noise, so samples and seed
    then shape nothing. workers is accepted for existing callers and has no
    effect: the samples run one after another, since a thread pool measured
    slower than that on the tiny CNN.
    """
    if not 0 <= sigma < np.inf:
        raise ValueError("sigma must be non-negative and finite")
    if samples < 1:
        raise ValueError("need at least one sample")
    g_test = query_gradient(model, params, z_test)  # checked non-degenerate
    if sigma == 0.0:
        values = _pair_score_gradient(model, params, z_train.x, z_train.y, g_test)
    else:
        values = np.zeros_like(z_train.x)
        for i in range(samples):
            noise = stream(seed, f"smoothgrad/{i}").normal(0.0, sigma, size=z_train.x.shape)
            values += _pair_score_gradient(model, params, z_train.x + noise, z_train.y, g_test)
        values /= samples
    return SaliencyMap(values)


def channel_aggregate(saliency) -> np.ndarray:
    """Collapse a signed (C, H, W) map to a non-negative (H, W) grid: the sum of absolute values."""
    values = saliency.values if isinstance(saliency, SaliencyMap) else np.asarray(saliency)
    if values.ndim == 2:
        values = values[None]
    if values.ndim != 3:
        raise ValueError(f"expected a (C, H, W) map, got shape {values.shape}")
    return np.abs(values).sum(axis=0)
