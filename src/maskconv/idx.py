"""Reader/writer for the IDX binary container used by digit datasets.

Image files: big-endian magic ``0x00000803``, then N, H, W as big-endian
32-bit integers, then N*H*W unsigned pixel bytes, row-major.  Label
files: magic ``0x00000801``, then N, then N label bytes.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Raised on malformed IDX files."""


def write_idx_images(path: str | Path, images: np.ndarray) -> None:
    """Write (N, H, W) uint8 images."""
    images = np.asarray(images, dtype=np.uint8)
    n, h, w = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGES_MAGIC, n, h, w))
        f.write(images.tobytes())


def write_idx_labels(path: str | Path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", LABELS_MAGIC, len(labels)))
        f.write(labels.tobytes())


def _read_exact(f, size: int, what: str, path) -> bytes:
    """Read ``size`` bytes, after checking that the file still holds them.

    Sizes come from the file's own header, so ``size`` is compared with
    the bytes left in the file before ``read`` is asked for it: a short
    file that declares gigabytes fails here without allocating them.
    """
    left = os.fstat(f.fileno()).st_size - f.tell()
    if size > left:
        raise IdxFormatError(f"{path}: truncated {what} (wanted {size} bytes, {left} left)")
    data = f.read(size)
    if len(data) != size:
        raise IdxFormatError(f"{path}: truncated {what} (wanted {size} bytes, got {len(data)})")
    return data


def read_idx_images(path: str | Path) -> np.ndarray:
    with open(path, "rb") as f:
        magic, n, h, w = struct.unpack(">IIII", _read_exact(f, 16, "image header", path))
        if magic != IMAGES_MAGIC:
            raise IdxFormatError(
                f"{path}: bad image magic 0x{magic:08x} (want 0x{IMAGES_MAGIC:08x})"
            )
        data = _read_exact(f, n * h * w, "pixel data", path)
    return np.frombuffer(data, dtype=np.uint8).reshape(n, h, w)


def read_idx_labels(path: str | Path) -> np.ndarray:
    with open(path, "rb") as f:
        magic, n = struct.unpack(">II", _read_exact(f, 8, "label header", path))
        if magic != LABELS_MAGIC:
            raise IdxFormatError(
                f"{path}: bad label magic 0x{magic:08x} (want 0x{LABELS_MAGIC:08x})"
            )
        data = _read_exact(f, n, "label data", path)
    return np.frombuffer(data, dtype=np.uint8).copy()


def load_idx(
    images_path: str | Path, labels_path: str | Path, dtype=np.float32
) -> tuple[np.ndarray, np.ndarray]:
    """Load an image/label file pair as ((N, H, W, 1) reals in [0, 1], ints).

    The two files must agree on the example count.
    """
    images = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if len(images) != len(labels):
        raise IdxFormatError(
            f"count mismatch: {len(images)} images in {images_path} but "
            f"{len(labels)} labels in {labels_path}"
        )
    scaled = (images.astype(dtype) / 255.0)[:, :, :, None]
    return scaled, labels.astype(np.int64)


def load_dataset_dir(root: str | Path, split: str = "train", dtype=np.float32):
    """Load ``<root>/<split>-images.idx`` and ``<root>/<split>-labels.idx``."""
    root = Path(root)
    return load_idx(root / f"{split}-images.idx", root / f"{split}-labels.idx", dtype)
