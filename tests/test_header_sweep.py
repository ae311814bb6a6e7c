"""Every header field of every binary format the package reads at 0, 1
and its maximum.

Each edited file either fails with its module's own error or loads
cleanly; a checkpoint or IDX split that loads then goes through
``maskconv eval``, which exits 0 or 1.  A traceback or a ``MemoryError``
fails the test.
"""

import struct

import numpy as np
import pytest

from maskconv.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from maskconv.cli import main
from maskconv.idx import IdxFormatError, load_dataset_dir, write_idx_images, write_idx_labels
from maskconv.masks import to_words
from maskconv.network import Dense, MaskedConv, build_small_cnn

EDGES = (0, 1, 2**32 - 1)  # every field is a u32
# byte offset of each field within its record, after the record's tag
CONV_FIELDS = dict(d=2, c=6, k=10, s=14, c_hat=18, g=22, stride=26, padding=30)
DENSE_FIELDS = dict(n_in=0, n_out=4)
MODELS = {
    "channel": dict(variant="channel", c_hat=2, g=2),  # a standard conv1, a channel conv2
    "separate": dict(variant="learnable", strategy="separate", s=2),
}


def write_split(root, n=4):
    root.mkdir()
    write_idx_images(root / "test-images.idx", np.zeros((n, 28, 28)))
    write_idx_labels(root / "test-labels.idx", np.arange(n) % 10)
    return root


@pytest.fixture(scope="module")
def split(tmp_path_factory):
    return write_split(tmp_path_factory.mktemp("sweep") / "data")


def edited(data, at, fmt, value):
    return data[:at] + struct.pack(fmt, value) + data[at + struct.calcsize(fmt) :]


def eval_code(checkpoint, data):
    out = []
    code = main(["eval", "--checkpoint", str(checkpoint), "--data", str(data)], out=out.append)
    return code, out


def field_offsets(model):
    """``(field, offset)`` of every conv and dense header field in the model's checkpoint."""
    offset, found = 12, []  # magic, version, layer count
    for layer in model.layers:
        offset += 1  # the tag
        if isinstance(layer, MaskedConv):
            found += [(name, offset + at) for name, at in CONV_FIELDS.items()]
            bank = layer.bank
            offset += 38 + 4 * bank.filters.size + (0 if bank.biases is None else 4 * bank.biases.size)
            if layer.masks is not None:
                offset += 8 + to_words(layer.masks.bits).nbytes
        elif isinstance(layer, Dense):
            found += [(name, offset + at) for name, at in DENSE_FIELDS.items()]
            offset += 8 + 4 * (layer.w.size + layer.b.size)
    return found, offset


@pytest.mark.parametrize("variant", MODELS)
def test_checkpoint_header_fields_load_or_fail_cleanly(tmp_path, split, variant):
    model = build_small_cnn(conv1_maps=4, conv2_maps=8, hidden=8, **MODELS[variant])
    save_checkpoint(model, tmp_path / "good.ckpt")
    data = (tmp_path / "good.ckpt").read_bytes()
    fields, end = field_offsets(model)
    assert end == len(data) and len(fields) == 2 * len(CONV_FIELDS) + 2 * len(DENSE_FIELDS)
    for name, at in fields:
        for value in EDGES:
            path = tmp_path / f"{at}-{value}.ckpt"
            path.write_bytes(edited(data, at, "<I", value))
            try:
                load_checkpoint(path)
                allowed = (0, 1)
            except CheckpointError:
                allowed = (1,)
            code, out = eval_code(path, split)
            assert code in allowed, (name, at, value, out)


def test_idx_header_fields_load_or_fail_cleanly(tmp_path):
    checkpoint = tmp_path / "model.ckpt"
    save_checkpoint(build_small_cnn(conv1_maps=4, conv2_maps=8, hidden=8), checkpoint)
    fields = [("images", "n", 4), ("images", "h", 8), ("images", "w", 12), ("labels", "n", 4)]
    cases = [(kind, name, at, value) for kind, name, at in fields for value in EDGES]
    # headers declaring fewer pixels than the 4-image 28x28 file holds
    trailing = {("images", "n", 2), ("images", "h", 0)}
    cases.append(("images", "n", 4, 2))
    for kind, name, at, value in cases:
        root = write_split(tmp_path / f"{kind}-{name}-{value}")
        path = root / f"test-{kind}.idx"
        path.write_bytes(edited(path.read_bytes(), at, ">I", value))
        try:
            load_dataset_dir(root, "test")
            allowed = (0, 1)
        except IdxFormatError as exc:
            allowed = (1,)
            error = str(exc)
        if (kind, name, value) in trailing:
            assert allowed == (1,) and "trailing bytes" in error, (kind, name, value)
        code, out = eval_code(checkpoint, root)
        assert code in allowed, (kind, name, value, out)
