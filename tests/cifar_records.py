"""CIFAR-10 binary records to and from arrays, and batch directories, for the loader tests."""

import numpy as np

from tfa.datasets import IMAGE_SHAPE, NUM_LABELS, FormatError


def encode_cifar10_bytes(X, y) -> bytes:
    """Inverse of decode_cifar10_bytes; decode-then-encode is the identity."""
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


def decode_cifar10_bytes(raw: bytes):
    """Images in [0, 1] and labels of well-formed records: the loader's decoding, written out plainly."""
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 1 + int(np.prod(IMAGE_SHAPE)))
    return records[:, 1:].reshape(-1, *IMAGE_SHAPE) / 255.0, records[:, 0].astype(np.int64)


def write_batches(directory, train_raws, test_raw) -> None:
    """data_batch_1.bin .. data_batch_5.bin from the five train_raws, and test_batch.bin, in directory."""
    for i, raw in enumerate(train_raws, 1):
        (directory / f"data_batch_{i}.bin").write_bytes(raw)
    (directory / "test_batch.bin").write_bytes(test_raw)
