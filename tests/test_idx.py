import hashlib
import math
import struct

import numpy as np
import pytest

from maskconv.datagen import CHUNK, IMAGE_SIZE, generate_digits, write_dataset
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

from oracles import render_digit_rolled


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
    x, y = load_idx(tmp_path / "im.idx", tmp_path / "lb.idx")
    assert x.dtype == np.float32
    assert x.shape == (1, 2, 2, 1)
    assert x.max() == 1.0 and x.min() == 0.0
    assert x[0, 1, 0, 0] == pytest.approx(128 / 255)
    assert y[0] == 3


def test_load_idx_holds_one_float_copy(tmp_path, traced_peak):
    # the file's bytes and one float32 copy, scaled in place: 1.25x the
    # result (a second float32 array for the quotient made it 2.25x)
    rng = np.random.default_rng(0)
    write_idx_images(tmp_path / "i.idx", rng.integers(0, 256, size=(2048, 28, 28)))
    write_idx_labels(tmp_path / "l.idx", rng.integers(0, 10, size=2048))
    (x, _), peak = traced_peak(lambda: load_idx(tmp_path / "i.idx", tmp_path / "l.idx"))
    assert peak <= 1.3 * x.nbytes


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
def test_huge_declared_sizes_rejected_without_allocating(tmp_path, fields, read, traced_peak):
    path = tmp_path / "huge.idx"
    path.write_bytes(struct.pack(f">{len(fields)}I", *fields) + bytes(60))
    declared = math.prod(fields[1:])

    def rejected():
        with pytest.raises(IdxFormatError, match=f"wanted {declared} bytes, 60 left"):
            read(path)

    _, peak = traced_peak(rejected)
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


# sha256 of the default digit stream, taken from the renderer before it
# became one gather per image: criterion 6's four files and a short stream,
# then the float32 images load_dataset_dir makes of the two image files,
# taken before it scaled them in place
DIGIT_STREAM_SHA256 = {
    "train-images.idx": "697c550993993ab21fac940fe9b566da2a89e577cc6ea5a42bd2d5afd83a5b2e",
    "train-labels.idx": "03635cf51c289783fcf55465332f600ff8db7b484b81b085a42af7b6fad2221c",
    "test-images.idx": "d8f6127da78f70866f6bd7f33497c0c451380eae22c80878d7915b6ccba266d3",
    "test-labels.idx": "aefba2b6399a844053a3ceb7d090d27d2572b53b3ee6e6c20a4a2e0bb5a520e1",
    "images(256, seed=5)": "23988b2e3e6ae432301a5a90e22911b5bff47e90cc9486ae7fd73b99eebdf753",
    "labels(256, seed=5)": "76c01ee575098ed02873e4900e9012e6ef17ec37855e9c7a593c8bf046657cc8",
    "train float32": "d8b77b5ade4fe8c95f6e16177d449baa437c9ba4500b92287a6d54ac3f18e622",
    "test float32": "ee3784be5ba25e4e43b4da23702caf412b9dc3008fc5cd6b74c7d10bc65e9416",
}


def test_default_digit_stream_is_pinned(tmp_path):
    write_dataset(tmp_path, 10_000, 2_000, seed=0)
    images, labels = generate_digits(256, seed=5)
    blobs = {name: (tmp_path / name).read_bytes() for name in list(DIGIT_STREAM_SHA256)[:4]}
    blobs["images(256, seed=5)"] = images.tobytes()
    blobs["labels(256, seed=5)"] = labels.tobytes()
    for split in ("train", "test"):
        blobs[f"{split} float32"] = load_dataset_dir(tmp_path, split)[0].tobytes()
    assert {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()} == DIGIT_STREAM_SHA256


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_generate_digits_matches_rolled_oracle_loop(seed):
    drawn = []
    for n in (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 10, size=n).astype(np.uint8)
        images = np.empty((n, IMAGE_SIZE, IMAGE_SIZE), dtype=np.uint8)
        for i, digit in enumerate(labels):
            images[i] = np.round(render_digit_rolled(int(digit), rng, drawn) * 255).astype(np.uint8)
        got_images, got_labels = generate_digits(n, seed)
        assert (got_images.shape, got_images.dtype) == (images.shape, images.dtype)
        assert (got_labels.shape, got_labels.dtype) == (labels.shape, labels.dtype)
        assert got_images.tobytes() == images.tobytes()
        assert got_labels.tobytes() == labels.tobytes()
    # every glyph size and both blur branches were rendered
    assert {(sy, sx) for sy, sx, _ in drawn} == {(2, 2), (2, 3), (3, 2), (3, 3)}
    assert {blurred for _, _, blurred in drawn} == {False, True}


@pytest.mark.parametrize("n", [2048, 8192])
def test_generate_digits_working_set_is_bounded_by_the_chunk(n, traced_peak):
    generate_digits(1, 0)  # imports numpy's lazily loaded modules outside the trace
    (images, _), peak = traced_peak(lambda: generate_digits(n, seed=1))
    assert images.nbytes == n * IMAGE_SIZE**2
    # beyond the output, two chunk-sized float64 canvases, whatever n is
    assert peak - images.nbytes < 2 * CHUNK * IMAGE_SIZE**2 * 8


def test_write_dataset_and_load_dir(tmp_path):
    write_dataset(tmp_path / "digits", n_train=20, n_test=8, seed=1)
    x_train, y_train = load_dataset_dir(tmp_path / "digits", "train")
    x_test, y_test = load_dataset_dir(tmp_path / "digits", "test")
    assert x_train.shape == (20, 28, 28, 1)
    assert x_test.shape == (8, 28, 28, 1)
    assert len(y_train) == 20 and len(y_test) == 8
    assert x_train.dtype == np.float32
