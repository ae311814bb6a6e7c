"""Binary mask sets that derive secondary filters from primary filters.

A mask is a bit vector of length ``d*d*c`` in the canonical vec order of
:mod:`maskconv.convref`.  In memory a :class:`MaskSet` holds its masks as
a 0/1 matrix; only checkpoints and the export of :func:`write_mask_records`
store bits, packed 32 to a little-endian word (vec index ``32*w + b`` in
bit ``b`` of word ``w``) by :func:`to_words`, and only a checkpoint reads
them back, through :func:`from_words`.  Four families:

* ``spatial``          nested centered squares, ``s = ceil(d/2)`` scales;
* ``channel-window``   a ``c_hat``-channel window slid with stride ``g``;
* ``learned-*``        bits trained with a straight-through estimator
                       (:func:`agent_update`), starting all ones;
* ``random-fixed``     fair-coin bits, frozen.

A set holds ``k`` groups of ``s`` masks, ``k`` fixed by the layer spec's
``mask_groups``; secondary ``j`` of primary ``i`` reads mask ``(i*s + j) %
(k*s)``, so a single group is shared by every primary.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, replace

import numpy as np

KINDS = ("spatial", "channel-window", "learned-shared", "learned-separate", "random-fixed")
# learnable strategy -> the kind of the bit masks it trains or freezes
STRATEGY_KINDS = {
    "shared": "learned-shared",
    "separate": "learned-separate",
    "random-fixed": "random-fixed",
}


class MaskError(ValueError):
    """Raised on invalid mask construction parameters."""


@dataclass
class MaskSet:
    """A collection of masks over a d x d x c filter shape.

    ``bits`` is the ``(d*d*c, n_masks)`` boolean matrix, one mask per
    column; it is a read-only copy, kept column-major, each mask
    contiguous.  ``s`` is the per-primary-filter mask count (scales,
    windows, or learned masks); ``k`` is the number of groups of ``s``, 1
    for a group every primary shares.  The builders of fresh bits, the
    structural and random ones and a checkpoint's reader, pass ``_adopt``
    to hand over a boolean matrix in that layout, which the set then keeps
    without a copy.
    """

    kind: str
    bits: np.ndarray
    d: int
    c: int
    s: int
    k: int = 1
    _adopt: InitVar[bool] = False

    def __post_init__(self, _adopt):
        if self.kind not in KINDS:
            raise MaskError(f"unknown mask kind {self.kind!r}")
        if not _adopt:
            self.bits = np.array(self.bits, dtype=bool, order="F")  # a copy: the caller's stays writeable
        self.bits.flags.writeable = False  # so that the layouts kept on the set stay true
        v, n = self.d * self.d * self.c, self.s * self.k
        if self.bits.shape != (v, n):
            raise MaskError(f"{self.kind} mask set expects {n} masks of {v} bits, got {self.bits.shape}")

    @property
    def n_masks(self) -> int:
        return self.bits.shape[1]

    def dense(self, dtype=np.float64) -> np.ndarray:
        """The masks as a (d*d*c, n_masks) 0/1 matrix of ``dtype``."""
        return self.bits.astype(dtype)

    def column_index(self, i: int, j: int) -> int:
        """Mask index serving secondary filter (primary i, mask j)."""
        return (i * self.s + j) % self.n_masks

    def ones_counts(self) -> np.ndarray:
        return self.bits.sum(axis=0)

    def flip_count(self, other: "MaskSet") -> int:
        """Number of mask bits that differ from ``other`` (same dims)."""
        return int(np.count_nonzero(self.bits != other.bits))


def from_dense(bits: np.ndarray, kind: str, d: int, c: int, s: int, k: int = 1) -> MaskSet:
    """Build a MaskSet from a (d*d*c, n_masks) 0/1 matrix."""
    return MaskSet(kind, bits, d, c, s, k)


def to_words(bits: np.ndarray) -> np.ndarray:
    """``(n_masks, ceil(v/32))`` little-endian uint32 words of a ``(v, n_masks)`` 0/1 matrix."""
    v, n = bits.shape
    padded = np.zeros((n, (v + 31) // 32 * 32), dtype=bool)
    padded[:, :v] = bits.T
    return np.packbits(padded, axis=1, bitorder="little").view("<u4")


def from_words(words: np.ndarray, v: int) -> np.ndarray:
    """The ``(v, n_masks)`` boolean matrix of :func:`to_words`' words.

    Raises :class:`MaskError` if a padding bit past ``v`` is set, since
    writing the bits back could not reproduce it.
    """
    tail = v % 32
    if tail and (words[:, -1] >> tail).any():
        raise MaskError(f"mask words set padding bits past bit {v}")
    return np.unpackbits(words.view(np.uint8), axis=1, count=v, bitorder="little").T.view(bool)


def spatial_masks(d: int, c: int) -> MaskSet:
    """Nested centered-square masks, one per scale.

    Scale ``i`` (1-based) keeps the centered ``(d + 2 - 2i)`` square at
    every channel; scale 1 is all ones and, for odd ``d``, the last scale
    is the single center position.
    """
    if d < 1 or c < 1:
        raise MaskError(f"d and c must be positive, got d={d} c={c}")
    s = (d + 1) // 2
    bits = np.zeros((s, d * d * c), dtype=bool)
    for i in range(1, s + 1):
        grid = np.zeros((d, d), dtype=bool)
        grid[i - 1 : d + 1 - i, i - 1 : d + 1 - i] = True
        bits[i - 1].reshape(d * d, c)[:] = grid.reshape(-1, 1)
    return MaskSet("spatial", bits.T, d, c, s, 1, _adopt=True)


def channel_windows(d: int, c: int, c_hat: int, g: int) -> MaskSet:
    """Window masks selecting ``c_hat`` consecutive channels with stride g.

    Window ``i`` (0-based) covers channels ``[i*g, i*g + c_hat)`` at all
    ``d*d`` spatial positions; there are ``(c - c_hat) / g + 1`` windows.
    """
    if not 1 <= c_hat <= c:
        raise MaskError(f"need 1 <= c_hat <= c, got c_hat={c_hat} c={c}")
    if g < 1:
        raise MaskError(f"channel stride g must be >= 1, got {g}")
    if (c - c_hat) % g != 0:
        raise MaskError(f"(c - c_hat) = {c - c_hat} not divisible by g = {g}")
    n = (c - c_hat) // g + 1
    bits = np.zeros((n, d * d * c), dtype=bool)
    for i in range(n):
        chans = np.zeros(c, dtype=bool)
        chans[i * g : i * g + c_hat] = True
        bits[i].reshape(d * d, c)[:] = chans
    return MaskSet("channel-window", bits.T, d, c, n, 1, _adopt=True)


def random_masks(k: int, s: int, d: int, c: int, seed: int) -> MaskSet:
    """Fair-coin fixed masks, one group of s per primary filter."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(k * s, d * d * c), dtype=np.uint8)
    return MaskSet("random-fixed", bits.view(bool).T, d, c, s, k, _adopt=True)


def _gram_blocks(masks: MaskSet | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each per-primary block of the dense masks and its raw Gram ``M^T M``.

    Returns the blocks as ``(groups, s, d*d*c)`` rows and their Grams as
    ``(groups, s, s)``.  A :class:`MaskSet` splits into blocks of ``s``
    columns; a plain matrix is a single block.  One batched product forms
    every Gram: on 0/1 masks each entry is an exact integer, so the bits
    are those of a product per block.
    """
    if isinstance(masks, MaskSet):
        m, block = masks.dense(np.float64), masks.s
    else:
        m = np.asarray(masks, dtype=np.float64)
        block = m.shape[1]
    rows = m.T.reshape(-1, block, m.shape[0])
    return rows, rows @ rows.transpose(0, 2, 1)


def ortho_loss(masks: MaskSet | np.ndarray) -> float:
    """Orthogonality penalty ``0.5 * ||M^T M / (d*d*c) - I||_F^2``.

    Treats mask bits as reals.  Under the separate strategy the penalty is
    evaluated per primary filter's block of ``s`` columns and summed.
    """
    rows, raw = _gram_blocks(masks)
    diff = raw / rows.shape[2] - np.eye(rows.shape[1])
    total = 0.0
    # a C-contiguous row per block, so that each sums as np.sum sums one block
    for block_sum in (diff * diff).reshape(len(diff), -1).sum(axis=1).tolist():
        total += 0.5 * block_sum
    return total


def ortho_grad(masks: MaskSet | np.ndarray) -> np.ndarray:
    """Gradient of :func:`ortho_loss` w.r.t. the real-relaxed mask matrix.

    Per block: ``(2 / (d*d*c)^2) * M M^T M - (2 / (d*d*c)) * M``.
    """
    rows, raw = _gram_blocks(masks)
    v = rows.shape[2]
    blocks = rows.transpose(0, 2, 1)  # (groups, v, s)
    grad = (2.0 / v**2) * (blocks @ raw) - (2.0 / v) * blocks
    return grad.transpose(1, 0, 2).reshape(v, -1)


def gram_offdiagonal(masks: MaskSet | np.ndarray) -> float:
    """Mean |off-diagonal| of the normalized mask Gram matrix.

    The Gram is ``M^T M / (d*d*c)`` per primary-filter block; its
    off-diagonal magnitudes measure how correlated the masks are (0 for
    orthogonal columns, 1 for identical all-ones masks).
    """
    rows, raw = _gram_blocks(masks)
    off = ~np.eye(raw.shape[1], dtype=bool)
    total = 0.0
    # a C-contiguous row per block, so that each sums as np.sum sums one block
    magnitudes = np.ascontiguousarray(np.abs((raw / rows.shape[2])[:, off]))
    for block_sum in magnitudes.sum(axis=1).tolist():
        total += block_sum
    count = len(raw) * int(off.sum())
    return total / count if count else 0.0


def agent_update(masks: MaskSet, grad_m: np.ndarray, lr: float) -> MaskSet:
    """Straight-through step of binary masks; returns the next masks.

    The mask gradient passes through the threshold unchanged, so each bit
    steps from its current value against it::

        M <- (M - lr * grad_m) > 0

    which is the reset-and-clip rule ``clip(M - lr * grad_m, 0, 1) > 0``
    entry for entry.  On 0/1 bits it is ``lr * grad_m < M``, which
    compares each step with its bit and forms no real-valued ``M``.
    Consequences asserted in tests: a set bit flips off only when
    ``lr * grad >= 1`` in a single step, while a cleared bit flips on for
    any negative gradient.
    """
    if grad_m.shape != masks.bits.shape:
        raise MaskError(f"grad shape {grad_m.shape} != mask shape {masks.bits.shape}")
    return replace(masks, bits=lr * grad_m < masks.bits)


def write_mask_records(masks: MaskSet, fileobj) -> None:
    """Serialize masks: per mask a (d, c) header then the packed words.

    Layout per record: two little-endian uint32 (d, c) followed by
    ``ceil(d*d*c/32)`` little-endian uint32 words; bit ``b`` of word ``w``
    holds vec index ``32*w + b``.
    """
    header = np.array([masks.d, masks.c], dtype="<u4").tobytes()
    for row in to_words(masks.bits):
        fileobj.write(header)
        fileobj.write(row.tobytes())
