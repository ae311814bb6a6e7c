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


def read_idx_images(path: str | Path) -> np.ndarray:
    r = Reader(Path(path).read_bytes(), IdxFormatError, str(path))
    magic, n, h, w = r.unpack(">IIII", "image header")
    if magic != IMAGES_MAGIC:
        raise IdxFormatError(f"{path}: bad image magic 0x{magic:08x} (want 0x{IMAGES_MAGIC:08x})")
    images = r.array((n, h, w), np.uint8, "pixel data")
    r.end()
    return images


def read_idx_labels(path: str | Path) -> np.ndarray:
    r = Reader(Path(path).read_bytes(), IdxFormatError, str(path))
    magic, n = r.unpack(">II", "label header")
    if magic != LABELS_MAGIC:
        raise IdxFormatError(f"{path}: bad label magic 0x{magic:08x} (want 0x{LABELS_MAGIC:08x})")
    labels = r.array((n,), np.uint8, "label data")
    r.end()
    return labels.copy()


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
