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

# images rendered at once: bounds the float64 working set of generate_digits
CHUNK = 128

# the ten 0/1 glyphs, stacked by digit
_GLYPHS = np.array([[[ch == "#" for ch in row] for row in _FONT[d]] for d in range(10)], dtype=np.float64)


def _blur(img: np.ndarray) -> np.ndarray:
    # cheap 3x3 box blur of the last two axes via shifted copies
    h, w = img.shape[-2:]
    padded = np.pad(img, [(0, 0)] * (img.ndim - 2) + [(1, 1), (1, 1)])
    out = np.zeros_like(img)
    for dy in (0, 1, 2):
        for dx in (0, 1, 2):
            out += padded[..., dy : dy + h, dx : dx + w]
    return out / 9.0


def _render_chunk(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Noisy 28x28 renderings of ``labels`` scaled to [0, 255], rounded.

    Each image draws, in order: its glyph scales ``sy`` and ``sx``, shear,
    intensity, blur flag, placement ``y0`` and ``x0``, then its pixel
    noise.  The images are then rendered a glyph size at a time.
    """
    integers, uniform = rng.integers, rng.uniform
    canvas = np.empty((len(labels), IMAGE_SIZE, IMAGE_SIZE))
    draws = []
    for noise in canvas:
        sy, sx = integers(2, 4), integers(2, 4)
        shear, intensity, blur = uniform(-0.15, 0.15), uniform(0.85, 1.0), rng.random() < 0.25
        y0, x0 = integers(0, IMAGE_SIZE - 7 * sy + 1), integers(0, IMAGE_SIZE - 5 * sx + 1)
        noise[:] = rng.normal(0.0, 0.04, size=noise.shape)
        draws.append((sy, sx, shear, intensity, blur, y0, x0))
    sy, sx, shear, intensity, blur, y0, x0 = np.array(draws).T  # exact: small ints, bools, float64
    for a, b in ((2, 2), (2, 3), (3, 2), (3, 3)):  # the glyph scales (sy, sx)
        (idx,) = np.nonzero((sy == a) & (sx == b))
        h, w = 7 * a, 5 * b
        img = _GLYPHS[labels[idx]].repeat(a, 1).repeat(b, 2)
        # row r rolled right by round(shear * (r - h/2)), as one gather
        shift = np.round(shear[idx, None] * (np.arange(h) - h / 2)).astype(np.intp)
        img = np.take_along_axis(img, (np.arange(w) - shift[:, :, None]) % w, axis=2)
        img *= intensity[idx, None, None]
        flagged = blur[idx] == 1
        img[flagged] = _blur(img[flagged])
        rows = y0[idx, None, None].astype(np.intp) + np.arange(h)[:, None]
        cols = x0[idx, None, None].astype(np.intp) + np.arange(w)
        # noise + glyph: the bits of a zero canvas with the glyph placed, then += noise
        canvas[idx[:, None, None], rows, cols] += img
    np.clip(canvas, 0.0, 1.0, out=canvas)
    canvas *= 255
    return np.round(canvas, out=canvas)


def generate_digits(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n labeled digit images as ((n, 28, 28) uint8, (n,) uint8)."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    images = np.empty((n, IMAGE_SIZE, IMAGE_SIZE), dtype=np.uint8)
    for start in range(0, n, CHUNK):
        images[start : start + CHUNK] = _render_chunk(labels[start : start + CHUNK], rng)
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
