"""Dataset construction: synthetic shape images and the CIFAR-10 binary format.

The synthetic generator draws one filled shape per image (square, disc or
cross, one shape family per class) at a uniformly random position on a
black background, then adds clipped gaussian noise. Classes are told apart
by shape alone, never by position, which makes the images easy for a small
CNN yet non-trivial to attribute. Both sources return (train, holdout,
test) splits, the holdout None when it holds no image.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .models import Dataset
from .rng import stream

SHAPES = ("square", "disc", "cross")

RECORD_BYTES = 3073  # 1 label byte + 3 * 32 * 32 pixel bytes
IMAGE_SHAPE = (3, 32, 32)
NUM_LABELS = 10


class FormatError(ValueError):
    """Raised when a binary file does not follow the expected layout."""


@dataclass(frozen=True)
class SyntheticShapesSpec:
    size: int = 32
    num_classes: int = 3
    noise: float = 0.05
    train_per_class: int = 100
    holdout_per_class: int = 20
    test_per_class: int = 40
    seed: int = 0

    def __post_init__(self):
        if self.size < 12:
            raise ValueError("image size must be at least 12 pixels")
        if not 2 <= self.num_classes <= 3:
            raise ValueError("class count must be 2 or 3")
        if not 0 <= self.noise < np.inf:
            raise ValueError("noise level must be non-negative and finite")
        if self.train_per_class < 1 or self.test_per_class < 1 or self.holdout_per_class < 0:
            raise ValueError("split sizes must be positive (holdout may be zero)")


def _draw_square(img, rng):
    size = img.shape[0]
    k = max(4, size // 4)
    r = int(rng.integers(0, size - k + 1))
    c = int(rng.integers(0, size - k + 1))
    img[r : r + k, c : c + k] = 0.9


def _draw_disc(img, rng):
    size = img.shape[0]
    radius = max(3, size // 6)
    cy = int(rng.integers(radius, size - radius))
    cx = int(rng.integers(radius, size - radius))
    yy, xx = np.ogrid[:size, :size]
    img[(yy - cy) ** 2 + (xx - cx) ** 2 <= radius**2] = 0.9


def _draw_cross(img, rng):
    size = img.shape[0]
    arm = max(4, size // 3)
    thick = max(2, size // 16)
    cy = int(rng.integers(arm, size - arm))
    cx = int(rng.integers(arm, size - arm))
    half = thick // 2
    img[cy - half : cy - half + thick, cx - arm : cx + arm] = 0.9
    img[cy - arm : cy + arm, cx - half : cx - half + thick] = 0.9


_DRAWERS = {"square": _draw_square, "disc": _draw_disc, "cross": _draw_cross}


def _render(shape: str, size: int, noise: float, rng) -> np.ndarray:
    img = np.zeros((size, size))
    _DRAWERS[shape](img, rng)
    if noise:
        img += rng.normal(0.0, noise, size=img.shape)
    return np.clip(img, 0.0, 1.0)[None]


def _split(spec: SyntheticShapesSpec, name: str, per_class: int) -> Dataset:
    rng = stream(spec.seed, f"shapes/{name}")
    labels = np.repeat(np.arange(spec.num_classes), per_class)
    # the list of images is freed before Dataset copies the stack, so the split peaks at two copies
    return Dataset(np.stack([_render(SHAPES[c], spec.size, spec.noise, rng) for c in labels]), labels)


def generate_synthetic(spec: SyntheticShapesSpec):
    """Build (train, holdout, test) datasets from one spec.

    Each split draws from its own named stream of the master seed, so
    resizing one split never changes the others.
    """
    train = _split(spec, "train", spec.train_per_class)
    holdout = _split(spec, "holdout", spec.holdout_per_class) if spec.holdout_per_class else None
    test = _split(spec, "test", spec.test_per_class)
    return train, holdout, test


def _cifar10_records(raw: bytes) -> np.ndarray:
    """Check binary records and return them as an (N, 3073) uint8 array.

    Each 3073-byte record is one label byte followed by 3072 pixel bytes
    laid out as three 32x32 row-major planes, red then green then blue.
    """
    if len(raw) == 0 or len(raw) % RECORD_BYTES != 0:
        raise FormatError(
            f"file length {len(raw)} is not a positive multiple of {RECORD_BYTES}"
        )
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, RECORD_BYTES)
    bad = records[:, 0] >= NUM_LABELS
    if bad.any():
        raise FormatError(f"invalid label byte {int(records[bad][0, 0])} in record {int(np.flatnonzero(bad)[0])}")
    return records


def _decode_images(records: np.ndarray) -> np.ndarray:
    """The (N, 3, 32, 32) images in [0, 1] of checked records."""
    return records[:, 1:].reshape(-1, *IMAGE_SHAPE).astype(np.float64) / 255.0


def load_cifar10_binary(directory, classes, per_class_cap, holdout_per_class):
    """Load the standard binary layout from a directory as (train, holdout, test).

    Training data comes from data_batch_1.bin through data_batch_5.bin in
    file order, test data from test_batch.bin. Both keep only the listed
    `classes`, relabelled 0..len(classes)-1 in the given order (a label
    listed twice takes its last place), and only the first `per_class_cap`
    images of each class, again in file order. The holdout is then the last
    `holdout_per_class` kept training images of each class, in file order,
    and the training split the rest; as in generate_synthetic, the holdout
    is None when it holds no image.
    """
    if per_class_cap < 1 or holdout_per_class < 0:
        raise ValueError("per-class cap must be positive and holdout size non-negative")
    directory = Path(directory)
    train_files = [directory / f"data_batch_{i}.bin" for i in range(1, 6)]
    test_file = directory / "test_batch.bin"
    for f in (*train_files, test_file):
        if not f.exists():
            raise FormatError(f"missing batch file {f.name}")
    remap = {int(c): i for i, c in enumerate(classes)}
    relabel = np.array([remap.get(label, -1) for label in range(NUM_LABELS)])  # -1: not listed

    def split(files, held_per_class):
        # records stay uint8 until the kept rows are chosen; only those are decoded
        records = np.concatenate([_cifar10_records(f.read_bytes()) for f in files])
        y = relabel[records[:, 0]]
        kept = [np.flatnonzero(y == c)[:per_class_cap] for c in range(len(classes))]
        held = np.sort(np.concatenate([k[max(len(k) - held_per_class, 0) :] for k in kept]))
        rest = np.setdiff1d(np.concatenate(kept), held)
        train = Dataset(_decode_images(records[rest]), y[rest])
        return train, Dataset(_decode_images(records[held]), y[held]) if len(held) else None

    train, holdout = split(train_files, holdout_per_class)
    test, _ = split([test_file], 0)
    return train, holdout, test
