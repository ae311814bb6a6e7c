import math
import struct
import tracemalloc

import numpy as np
import pytest

from maskconv.datagen import generate_digits, write_dataset
from maskconv.idx import (
    IMAGES_MAGIC,
    LABELS_MAGIC,
    IdxFormatError,
    load_dataset_dir,
    load_idx,
    read_idx_images,
    read_idx_labels,
    write_idx_images,
    write_idx_labels,
)


def test_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(7, 5, 4), dtype=np.uint8)
    labels = rng.integers(0, 10, size=7, dtype=np.uint8)
    write_idx_images(tmp_path / "im.idx", images)
    write_idx_labels(tmp_path / "lb.idx", labels)
    assert np.array_equal(read_idx_images(tmp_path / "im.idx"), images)
    assert np.array_equal(read_idx_labels(tmp_path / "lb.idx"), labels)


def test_idx_header_layout_is_big_endian(tmp_path):
    write_idx_images(tmp_path / "im.idx", np.zeros((2, 3, 4), dtype=np.uint8))
    raw = (tmp_path / "im.idx").read_bytes()
    assert struct.unpack(">IIII", raw[:16]) == (IMAGES_MAGIC, 2, 3, 4)
    write_idx_labels(tmp_path / "lb.idx", np.zeros(2, dtype=np.uint8))
    raw = (tmp_path / "lb.idx").read_bytes()
    assert struct.unpack(">II", raw[:8]) == (LABELS_MAGIC, 2)


def test_load_idx_normalizes_to_unit_interval(tmp_path):
    images = np.array([[[0, 255], [128, 64]]], dtype=np.uint8)
    write_idx_images(tmp_path / "im.idx", images)
    write_idx_labels(tmp_path / "lb.idx", np.array([3], dtype=np.uint8))
    x, y = load_idx(tmp_path / "im.idx", tmp_path / "lb.idx", dtype=np.float64)
    assert x.shape == (1, 2, 2, 1)
    assert x.max() == 1.0 and x.min() == 0.0
    assert x[0, 1, 0, 0] == pytest.approx(128 / 255)
    assert y[0] == 3


def test_all_zero_image_normalizes_to_zero(tmp_path):
    write_idx_images(tmp_path / "im.idx", np.zeros((1, 4, 4), dtype=np.uint8))
    write_idx_labels(tmp_path / "lb.idx", np.zeros(1, dtype=np.uint8))
    x, _ = load_idx(tmp_path / "im.idx", tmp_path / "lb.idx")
    assert np.all(x == 0)


def test_magic_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
    with pytest.raises(IdxFormatError, match="magic"):
        read_idx_images(path)
    with pytest.raises(IdxFormatError, match="magic"):
        read_idx_labels(path)


def test_count_mismatch_rejected(tmp_path):
    write_idx_images(tmp_path / "im.idx", np.zeros((3, 2, 2), dtype=np.uint8))
    write_idx_labels(tmp_path / "lb.idx", np.zeros(2, dtype=np.uint8))
    with pytest.raises(IdxFormatError, match="count mismatch"):
        load_idx(tmp_path / "im.idx", tmp_path / "lb.idx")


def test_truncated_file_rejected(tmp_path):
    # every byte offset of a real image/label pair, headers included
    rng = np.random.default_rng(4)
    write_idx_images(tmp_path / "im.idx", rng.integers(0, 256, size=(3, 4, 5), dtype=np.uint8))
    write_idx_labels(tmp_path / "lb.idx", rng.integers(0, 10, size=3, dtype=np.uint8))
    images, labels = (tmp_path / "im.idx").read_bytes(), (tmp_path / "lb.idx").read_bytes()
    for data, read in ((images, read_idx_images), (labels, read_idx_labels)):
        for cut in range(len(data)):
            path = tmp_path / f"cut{cut}.idx"
            path.write_bytes(data[:cut])
            with pytest.raises(IdxFormatError, match="truncated"):
                read(path)


HUGE = 2**32 - 1


@pytest.mark.parametrize(
    "fields, read",
    [
        ((IMAGES_MAGIC, HUGE, 4, 5), read_idx_images),
        ((IMAGES_MAGIC, 3, HUGE, 5), read_idx_images),
        ((IMAGES_MAGIC, 3, 4, HUGE), read_idx_images),
        ((IMAGES_MAGIC, HUGE, HUGE, HUGE), read_idx_images),
        ((LABELS_MAGIC, HUGE), read_idx_labels),
    ],
)
def test_huge_declared_sizes_rejected_without_allocating(tmp_path, fields, read):
    path = tmp_path / "huge.idx"
    path.write_bytes(struct.pack(f">{len(fields)}I", *fields) + bytes(60))
    declared = math.prod(fields[1:])
    tracemalloc.start()
    try:
        with pytest.raises(IdxFormatError, match=f"wanted {declared} bytes, 60 left"):
            read(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_generate_digits_deterministic_and_labeled():
    images_a, labels_a = generate_digits(32, seed=5)
    images_b, labels_b = generate_digits(32, seed=5)
    assert np.array_equal(images_a, images_b)
    assert np.array_equal(labels_a, labels_b)
    assert images_a.shape == (32, 28, 28)
    assert images_a.dtype == np.uint8
    assert set(np.unique(labels_a)) <= set(range(10))
    # different seeds differ
    images_c, _ = generate_digits(32, seed=6)
    assert not np.array_equal(images_a, images_c)


def test_write_dataset_and_load_dir(tmp_path):
    write_dataset(tmp_path / "digits", n_train=20, n_test=8, seed=1)
    x_train, y_train = load_dataset_dir(tmp_path / "digits", "train")
    x_test, y_test = load_dataset_dir(tmp_path / "digits", "test")
    assert x_train.shape == (20, 28, 28, 1)
    assert x_test.shape == (8, 28, 28, 1)
    assert len(y_train) == 20 and len(y_test) == 8
    assert x_train.dtype == np.float32
