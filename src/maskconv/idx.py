"""Reader/writer for the IDX binary container used by digit datasets.

Image files: big-endian magic ``0x00000803``, then N, H, W as big-endian
32-bit integers, then N*H*W unsigned pixel bytes, row-major.  Label
files: magic ``0x00000801``, then N, then N label bytes.  A file holding
bytes past those its header declares is rejected.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from maskconv.binread import Reader

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


def _read_idx(path: str | Path, magic: int, what: str, payload: str) -> np.ndarray:
    """An IDX file's read-only uint8 array; its magic must be ``magic``, whose low byte counts the dims."""
    r = Reader(Path(path).read_bytes(), IdxFormatError, str(path))
    got, *dims = r.unpack(f">{1 + (magic & 0xFF)}I", f"{what} header")
    if got != magic:
        raise IdxFormatError(f"{path}: bad {what} magic 0x{got:08x} (want 0x{magic:08x})")
    array = r.array(tuple(dims), np.uint8, payload)
    r.end()
    return array


def read_idx_images(path: str | Path) -> np.ndarray:
    return _read_idx(path, IMAGES_MAGIC, "image", "pixel data")


def read_idx_labels(path: str | Path) -> np.ndarray:
    return _read_idx(path, LABELS_MAGIC, "label", "label data").copy()


def load_idx(images_path: str | Path, labels_path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Load an image/label file pair as ((N, H, W, 1) float32 in [0, 1], int64).

    The two files must agree on the example count.  The one float32 copy
    of the pixels is divided by 255 in place, so a load holds the file's
    bytes and that copy, not a second float array.
    """
    images = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if len(images) != len(labels):
        raise IdxFormatError(
            f"count mismatch: {len(images)} images in {images_path} but "
            f"{len(labels)} labels in {labels_path}"
        )
    scaled = images.astype(np.float32)
    scaled /= 255.0
    return scaled[:, :, :, None], labels.astype(np.int64)


def load_dataset_dir(root: str | Path, split: str = "train"):
    """Load ``<root>/<split>-images.idx`` and ``<root>/<split>-labels.idx``."""
    root = Path(root)
    return load_idx(root / f"{split}-images.idx", root / f"{split}-labels.idx")
