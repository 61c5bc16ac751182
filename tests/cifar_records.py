"""CIFAR-10 binary records from arrays, the fixtures the loader tests parse."""

import numpy as np

from tfa.datasets import IMAGE_SHAPE, NUM_LABELS, FormatError


def encode_cifar10_bytes(X, y) -> bytes:
    """Inverse of parse_cifar10_bytes; parse-then-encode is the identity."""
    X = np.asarray(X)
    y = np.asarray(y)
    if X.ndim != 4 or X.shape[1:] != IMAGE_SHAPE:
        raise FormatError(f"expected images of shape {IMAGE_SHAPE}, got {X.shape[1:]}")
    if len(X) != len(y):
        raise FormatError("image and label counts differ")
    if ((y < 0) | (y >= NUM_LABELS)).any():
        raise FormatError("labels must lie in [0, 10)")
    pixels = np.round(X * 255.0).astype(np.uint8).reshape(len(X), -1)
    records = np.concatenate([y.astype(np.uint8)[:, None], pixels], axis=1)
    return records.tobytes()
