"""Self-contained synthetic digit dataset in IDX format.

Renders the ten digits from a 5x7 bitmap font with randomized scale,
shear, placement, stroke intensity, blur and pixel noise, producing a
28x28 grayscale 10-class classification task that trains in minutes on a
CPU.  Entirely offline and reproducible from a seed; exercised through
the same IDX files and loader a downloaded dataset would use.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from maskconv.idx import write_idx_images, write_idx_labels

_FONT = {
    0: (" ### ", "#   #", "#  ##", "# # #", "##  #", "#   #", " ### "),
    1: ("  #  ", " ##  ", "  #  ", "  #  ", "  #  ", "  #  ", " ### "),
    2: (" ### ", "#   #", "    #", "   # ", "  #  ", " #   ", "#####"),
    3: (" ### ", "#   #", "    #", "  ## ", "    #", "#   #", " ### "),
    4: ("   # ", "  ## ", " # # ", "#  # ", "#####", "   # ", "   # "),
    5: ("#####", "#    ", "#### ", "    #", "    #", "#   #", " ### "),
    6: (" ### ", "#    ", "#### ", "#   #", "#   #", "#   #", " ### "),
    7: ("#####", "    #", "   # ", "  #  ", " #   ", " #   ", " #   "),
    8: (" ### ", "#   #", "#   #", " ### ", "#   #", "#   #", " ### "),
    9: (" ### ", "#   #", "#   #", " ####", "    #", "   # ", " ##  "),
}

IMAGE_SIZE = 28


# the ten 0/1 glyphs, built once
_GLYPHS = {d: np.array([[ch == "#" for ch in row] for row in rows], dtype=np.float64) for d, rows in _FONT.items()}


def _blur(img: np.ndarray) -> np.ndarray:
    # cheap 3x3 box blur via shifted copies
    padded = np.pad(img, 1)
    out = np.zeros_like(img)
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            out += padded[dy : dy + img.shape[0], dx : dx + img.shape[1]]
    return out / 9.0


def render_digit(digit: int, rng: np.random.Generator) -> np.ndarray:
    """One noisy 28x28 rendering of a digit, values in [0, 1]."""
    sy = int(rng.integers(2, 4))
    sx = int(rng.integers(2, 4))
    img = _GLYPHS[digit].repeat(sy, 0).repeat(sx, 1)
    shear = float(rng.uniform(-0.15, 0.15))
    h, w = img.shape
    # row r rolled right by its shift, as one gather
    shift = np.array([round(shear * (r - h / 2)) for r in range(h)])
    img = img[np.arange(h)[:, None], (np.arange(w) - shift[:, None]) % w]
    img = img * float(rng.uniform(0.85, 1.0))
    if rng.random() < 0.25:
        img = _blur(img)

    canvas = np.zeros((IMAGE_SIZE, IMAGE_SIZE))
    max_y = IMAGE_SIZE - img.shape[0]
    max_x = IMAGE_SIZE - img.shape[1]
    y0 = int(rng.integers(0, max_y + 1))
    x0 = int(rng.integers(0, max_x + 1))
    canvas[y0 : y0 + img.shape[0], x0 : x0 + img.shape[1]] = img
    canvas += rng.normal(0.0, 0.04, size=canvas.shape)
    return np.clip(canvas, 0.0, 1.0)


def generate_digits(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n labeled digit images as ((n, 28, 28) uint8, (n,) uint8)."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    images = np.empty((n, IMAGE_SIZE, IMAGE_SIZE), dtype=np.uint8)
    for i, digit in enumerate(labels):
        images[i] = np.round(render_digit(int(digit), rng) * 255).astype(np.uint8)
    return images, labels


def write_dataset(root: str | Path, n_train: int = 10_000, n_test: int = 2_000, seed: int = 0) -> Path:
    """Write train/test IDX file pairs under ``root``; returns the path."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    train_images, train_labels = generate_digits(n_train, seed)
    test_images, test_labels = generate_digits(n_test, seed + 1_000_003)
    write_idx_images(root / "train-images.idx", train_images)
    write_idx_labels(root / "train-labels.idx", train_labels)
    write_idx_images(root / "test-images.idx", test_images)
    write_idx_labels(root / "test-labels.idx", test_labels)
    return root
