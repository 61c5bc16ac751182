"""Synthetic shape generation and binary batch-format round trips."""

import tracemalloc

import numpy as np
import pytest

from cifar_records import decode_cifar10_bytes, encode_cifar10_bytes, write_batches
from tfa.datasets import (
    IMAGE_SHAPE,
    RECORD_BYTES,
    FormatError,
    SyntheticShapesSpec,
    generate_synthetic,
    load_cifar10_binary,
)
from tfa.models import Model, TrainConfig, tiny_cnn, train


class TestSyntheticShapes:
    def test_same_seed_reproduces_every_split(self):
        spec = SyntheticShapesSpec(size=16, train_per_class=5, holdout_per_class=3, test_per_class=4, seed=11)
        a_train, a_hold, a_test = generate_synthetic(spec)
        b_train, b_hold, b_test = generate_synthetic(spec)
        assert np.array_equal(a_train.X, b_train.X)
        assert np.array_equal(a_hold.X, b_hold.X)
        assert np.array_equal(a_test.X, b_test.X)
        assert np.array_equal(a_train.y, b_train.y)

    def test_split_streams_are_independent(self):
        # growing the test split must not move a single training pixel
        small = SyntheticShapesSpec(size=16, train_per_class=6, holdout_per_class=2, test_per_class=2, seed=1)
        big = SyntheticShapesSpec(size=16, train_per_class=6, holdout_per_class=2, test_per_class=9, seed=1)
        a, _, _ = generate_synthetic(small)
        b, _, _ = generate_synthetic(big)
        assert np.array_equal(a.X, b.X)

    def test_exact_label_balance_and_range(self):
        spec = SyntheticShapesSpec(size=14, num_classes=3, train_per_class=7, holdout_per_class=2, test_per_class=3, seed=4)
        for ds, per_class in zip(generate_synthetic(spec), (7, 2, 3)):
            counts = np.bincount(ds.y, minlength=3)
            assert list(counts) == [per_class] * 3
            assert ds.X.shape == (3 * per_class, 1, 14, 14)
            assert ds.X.min() >= 0.0 and ds.X.max() <= 1.0

    def test_classes_differ_by_shape_not_position(self):
        # noiseless images of one class vary across draws (random placement)
        spec = SyntheticShapesSpec(size=16, noise=0.0, train_per_class=6, holdout_per_class=0, test_per_class=1, seed=2)
        train_ds, holdout, _ = generate_synthetic(spec)
        assert holdout is None
        squares = train_ds.X[train_ds.y == 0]
        assert any(not np.array_equal(squares[0], squares[i]) for i in range(1, len(squares)))
        # same ink appears at different positions: per-image mass is constant
        masses = squares.sum(axis=(1, 2, 3))
        np.testing.assert_allclose(masses, masses[0])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticShapesSpec(size=8)
        with pytest.raises(ValueError):
            SyntheticShapesSpec(num_classes=4)
        for noise in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="noise level must be non-negative"):
                SyntheticShapesSpec(noise=noise)
        with pytest.raises(ValueError):
            SyntheticShapesSpec(train_per_class=0)

    def test_tiny_cnn_learns_shapes(self):
        # the generator's whole point: separable by a small model at the
        # default 32-pixel scale
        spec = SyntheticShapesSpec(size=32, noise=0.05, train_per_class=200, holdout_per_class=0, test_per_class=40, seed=0)
        train_ds, _, test_ds = generate_synthetic(spec)
        arch = tiny_cnn((1, 32, 32), 3)
        params, _ = train(train_ds, arch, TrainConfig(lr=0.25, epochs=20, batch_size=32, seed=0, lr_decay=0.93))
        assert Model(arch).accuracy(params, test_ds) >= 0.95


def fake_records(n, seed=0, labels=None):
    rng = np.random.default_rng(seed)
    if labels is None:
        labels = rng.integers(0, 10, size=n)
    body = rng.integers(0, 256, size=(n, RECORD_BYTES - 1), dtype=np.uint8)
    records = np.concatenate([np.asarray(labels, dtype=np.uint8)[:, None], body], axis=1)
    return records.tobytes(), np.asarray(labels, dtype=np.int64)


def loaded(tmp_path, raw):
    """(X, y) of raw as the test batch through load_cifar10_binary: every label, no cap, no holdout."""
    write_batches(tmp_path, [fake_records(1)[0]] * 5, raw)
    _, _, test_ds = load_cifar10_binary(tmp_path, range(10), len(raw), 0)
    return test_ds.X, test_ds.y


class TestBinaryFormat:
    def test_parse_shapes_scaling_and_labels(self, tmp_path):
        raw, labels = fake_records(7, seed=1)
        X, y = loaded(tmp_path, raw)
        assert X.shape == (7, *IMAGE_SHAPE)
        assert np.array_equal(y, labels)
        assert X.min() >= 0.0 and X.max() <= 1.0
        # byte 0 and byte 255 map to the interval ends exactly
        first_byte = raw[1]
        assert X[0].ravel()[0] == first_byte / 255.0
        assert np.array_equal(X, decode_cifar10_bytes(raw)[0])

    def test_round_trip_is_byte_identical(self, tmp_path):
        for seed in range(3):
            raw, _ = fake_records(5, seed=seed)
            X, y = loaded(tmp_path, raw)
            assert encode_cifar10_bytes(X, y) == raw

    def test_bad_length_rejected(self, tmp_path):
        raw, _ = fake_records(2)
        for batch in ("data_batch_2.bin", "test_batch.bin"):
            for bad in (raw[:-1], b""):
                write_batches(tmp_path, [raw] * 5, raw)
                (tmp_path / batch).write_bytes(bad)
                with pytest.raises(FormatError, match="not a positive multiple"):
                    load_cifar10_binary(tmp_path, range(10), 10, 0)

    def test_invalid_label_byte_rejected(self, tmp_path):
        raw, _ = fake_records(3, labels=[0, 255, 3])
        with pytest.raises(FormatError, match="invalid label byte 255 in record 1"):
            loaded(tmp_path, raw)

    def test_encode_validation(self):
        with pytest.raises(FormatError):
            encode_cifar10_bytes(np.zeros((2, 1, 32, 32)), np.zeros(2, dtype=int))
        with pytest.raises(FormatError):
            encode_cifar10_bytes(np.zeros((2, *IMAGE_SHAPE)), np.array([0, 12]))
        with pytest.raises(FormatError):
            encode_cifar10_bytes(np.zeros((2, *IMAGE_SHAPE)), np.array([0]))


class TestDirectoryLoader:
    def write_layout(self, tmp_path, per_file=10):
        labels = [i % 10 for i in range(per_file)]
        raws = [fake_records(per_file, seed=i, labels=labels)[0] for i in (1, 2, 3, 4, 5, 99)]
        write_batches(tmp_path, raws[:5], raws[5])

    def test_loads_all_batches(self, tmp_path):
        self.write_layout(tmp_path)
        train_ds, holdout, test_ds = load_cifar10_binary(tmp_path, range(10), 1000, 0)
        assert len(train_ds) == 50
        assert holdout is None
        assert len(test_ds) == 10
        assert train_ds.X.shape[1:] == IMAGE_SHAPE

    def test_class_subset_remaps_labels(self, tmp_path):
        self.write_layout(tmp_path)
        train_ds, _, test_ds = load_cifar10_binary(tmp_path, (3, 7), 1000, 0)
        assert set(train_ds.y) == {0, 1}
        assert len(train_ds) == 10  # 5 files x 1 of each kept label
        assert set(test_ds.y) == {0, 1}
        # a label listed twice takes its last place, leaving place 0 empty
        train_ds, _, _ = load_cifar10_binary(tmp_path, (3, 7, 3), 1000, 0)
        assert set(train_ds.y) == {1, 2}

    def test_per_class_cap_keeps_first_in_file_order(self, tmp_path):
        labels = [3, 5, 3, 5, 3, 5]
        raws = [fake_records(6, seed=10 + i, labels=labels)[0] for i in range(1, 6)]
        write_batches(tmp_path, raws, raws[0])
        train_ds, _, _ = load_cifar10_binary(tmp_path, (3, 5), 3, 0)
        assert list(train_ds.y) == [0, 1, 0, 1, 0, 1]
        # cap fills entirely from the first batch file
        X1, _ = decode_cifar10_bytes(raws[0])
        assert np.array_equal(train_ds.X, X1)

    def test_holdout_is_the_last_kept_images_of_each_class_in_file_order(self, tmp_path):
        rng = np.random.default_rng(5)
        raws = [fake_records(12, seed=i, labels=rng.integers(0, 4, size=12))[0] for i in range(6)]
        write_batches(tmp_path, raws[:5], raws[5])
        classes, cap, h = (2, 0, 3), 7, 2
        train_ds, holdout, test_ds = load_cifar10_binary(tmp_path, classes, cap, h)
        # reference: cap each class one record at a time, then hold out the last h of each
        X, y = decode_cifar10_bytes(b"".join(raws[:5]))
        kept = {c: [] for c in classes}
        for i, label in enumerate(y.tolist()):
            if label in kept and len(kept[label]) < cap:
                kept[label].append(i)
        assert all(len(members) == cap for members in kept.values())  # the cap binds
        held = sorted(i for members in kept.values() for i in members[-h:])
        rest = sorted(i for members in kept.values() for i in members[:-h])
        place = {c: j for j, c in enumerate(classes)}
        for ds, rows in ((holdout, held), (train_ds, rest)):
            assert np.array_equal(ds.X, X[rows])
            assert ds.y.tolist() == [place[int(y[i])] for i in rows]
        _, y_test = decode_cifar10_bytes(raws[5])
        assert len(test_ds) == sum(min(cap, int((y_test == c).sum())) for c in classes)

    def test_cap_is_applied_before_the_holdout(self, tmp_path):
        self.write_layout(tmp_path)  # label 4 is record 4 of every file
        train_ds, holdout, test_ds = load_cifar10_binary(tmp_path, (4,), 3, 1)
        X, _ = decode_cifar10_bytes(b"".join((tmp_path / f"data_batch_{i}.bin").read_bytes() for i in range(1, 6)))
        assert np.array_equal(holdout.X, X[[24]])  # the third kept image, not the last in the files
        assert np.array_equal(train_ds.X, X[[4, 14]])
        assert len(test_ds) == 1  # the test split is capped, never held out

    def test_holdout_is_none_at_zero_and_sizes_are_checked(self, tmp_path):
        self.write_layout(tmp_path)
        assert load_cifar10_binary(tmp_path, (4,), 3, 0)[1] is None
        for cap, h in ((0, 0), (3, -1)):
            with pytest.raises(ValueError):
                load_cifar10_binary(tmp_path, (4,), cap, h)

    def test_only_kept_records_are_decoded(self, tmp_path):
        labels = [9] * 195 + [0] * 5  # records of an unlisted class vastly outnumber the kept ones
        raws = [fake_records(200, seed=i, labels=labels)[0] for i in (1, 2, 3, 4, 5, 9)]
        write_batches(tmp_path, raws[:5], raws[5])
        raw_bytes = 5 * 200 * RECORD_BYTES
        tracemalloc.start()
        try:
            train_ds, _, _ = load_cifar10_binary(tmp_path, (0,), 1000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(train_ds) == 25
        assert peak < 3 * raw_bytes

    def test_missing_file_is_a_format_error(self, tmp_path):
        self.write_layout(tmp_path)
        (tmp_path / "data_batch_4.bin").unlink()
        with pytest.raises(FormatError, match="data_batch_4"):
            load_cifar10_binary(tmp_path, range(10), 1000, 0)
