"""Reference convolution: patch extraction and exact, fixed-order kernels.

Everything else in the package is checked against this module, so the two
conventions below are load-bearing and must never drift:

Canonical vectorization order.
    A ``d x d x c`` block (filter, mask, or input patch) is flattened
    row-major with the channel index innermost::

        vec index v = (p * d + q) * c + ch

    for spatial position ``(p, q)`` and channel ``ch``.  This is exactly
    ``block.reshape(-1)`` on an array of shape ``(d, d, c)``.  Patch-matrix
    columns, stacked filter matrices, mask matrices and packed mask words
    all share this order; mixing orders would silently misalign mask bits
    with filter entries.

Fixed reduction order.
    Every dot product adds its elementwise products one row after another,
    starting from ``+0.0``: :func:`column_sums` reduces a products array
    over axis 0 that way, and :func:`matmul_conv`, the matrix form of
    standard convolution, is one C ``einsum`` contraction whose inner loop
    runs along an output row, so each output takes the patch rows in order
    too; the layers' forward contracts each mask's rows the same way.  A
    lone column (one output position) is reduced beside a zero column in
    both, since numpy would otherwise sum it pairwise or in SIMD lanes.  The
    order is fixed by the number of rows, never by thread count (neither
    uses BLAS), by the number of columns or by which entries happen to be
    zero, so a masked filter whose masked entries stay in place as zeros
    reproduces the reference convolution bit for bit.  Starting from
    ``+0.0`` means a column of ``-0.0`` products sums to ``+0.0``; any
    other kernel that must match these bits has to start its sums from
    zero too.  On numpy's x86-64 baseline build einsum multiplies and adds
    separately, with no fused multiply-add, so its sums round like the
    reduction's; a numpy build whose einsum fuses them would break this
    contract, and ``tests/test_differential.py`` is what catches that.

Patch extraction is a pure copy.
    :func:`im2col` moves values and never computes with them, so a
    patch column holds the input's exact bits.

Inputs are ``H x W x c`` arrays (``im2col`` also takes a ``B x H x W x c``
batch), filters ``d x d x c``, outputs ``H' x W'`` with
``H' = (H + 2*padding - d) // stride + 1``.  Padding reads as zero.  Only
square kernels are supported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes cannot be convolved."""


def conv_output_size(size: int, d: int, stride: int = 1, padding: int = 0) -> int:
    """Output extent of a convolution along one spatial axis."""
    if d < 1 or stride < 1 or padding < 0:
        raise ShapeError(f"invalid geometry d={d} stride={stride} padding={padding}")
    if size + 2 * padding < d:
        raise ShapeError(
            f"kernel d={d} exceeds padded input extent {size} + 2*{padding}"
        )
    return (size + 2 * padding - d) // stride + 1


def column_sums(products: np.ndarray) -> np.ndarray:
    """Sum a 2-d array over axis 0 in an order fixed by its shape.

    ``np.add.reduce`` over the leading axis of a C-contiguous array with
    two or more columns accumulates row by row, from ``+0.0``.  numpy
    would sum a lone ``(v, 1)`` column pairwise, as it does a 1-d array,
    so that column is reduced beside a zero column instead.  Every column
    is therefore summed row by row, in an order that depends only on
    ``v``: a batch whose images each have one output position is reduced
    like the single images, and exact zeros left in place never change
    the bits.  Because numpy starts the sum from ``+0.0``, a column of
    ``-0.0`` products sums to ``+0.0``.  :func:`conv_reference` reduces
    through here; :func:`matmul_conv` accumulates in the same order
    without forming the products array, and pads a lone column the same
    way.
    """
    return np.add.reduce(_pad_lone_column(products), axis=0)[: products.shape[1]]


def _pad_lone_column(a: np.ndarray) -> np.ndarray:
    """A 2-d ``a`` beside a zero column if it has only one, else ``a`` itself."""
    return np.hstack([a, np.zeros_like(a)]) if a.shape[1] == 1 else a


def vec(block: np.ndarray) -> np.ndarray:
    """Flatten a (d, d, c) block in the canonical order."""
    return np.ascontiguousarray(block).reshape(-1)


@dataclass(frozen=True)
class PatchMatrix:
    """im2col result: one column per output position, canonical vec order.

    ``cols`` has shape ``(d*d*c, B*h_out*w_out)``; columns are image-major,
    so column ``(b*h_out + p)*w_out + q`` is the vectorized receptive field
    of output pixel ``(p, q)`` of image ``b``.  A single ``(H, W, c)`` image
    is a batch of one without the leading axis.  ``in_shape`` is the shape
    of the (unpadded) input.
    """

    cols: np.ndarray
    d: int
    stride: int
    padding: int
    in_shape: tuple[int, ...]
    h_out: int
    w_out: int

    @property
    def out_shape(self) -> tuple[int, ...]:
        """Output grid ``(h_out, w_out)``, behind the batch axis if any."""
        return self.in_shape[:-3] + (self.h_out, self.w_out)


def _check_input(x: np.ndarray, batch_ok: bool = False) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 3 and not (batch_ok and x.ndim == 4):
        allowed = "H x W x c input or B x H x W x c batch" if batch_ok else "H x W x c input"
        raise ShapeError(f"expected {allowed}, got shape {x.shape}")
    return x


def im2col(x: np.ndarray, d: int, stride: int = 1, padding: int = 0) -> PatchMatrix:
    """Extract overlapping patches of ``x`` as columns.

    ``x`` is one ``H x W x c`` image or a ``B x H x W x c`` batch.  Padded
    cells read as zero.  Raises :class:`ShapeError` when the kernel
    exceeds the padded input.

    A pure copy: the input, channel axis first and zero-padded, is copied
    once, then ``d*d`` strided slices of it fill a ``(d, d, c, *batch,
    h_out, w_out)`` buffer whose reshape is ``cols``.  With no padding, an
    input whose channel-first view is already C-contiguous (one channel, or
    a map-major batch as the layers pass it on) is sliced directly instead.
    No arithmetic touches the values, so the columns hold the input's exact
    bits.
    """
    x = _check_input(x, batch_ok=True)
    *batch, h, w, c = x.shape
    h_out = conv_output_size(h, d, stride, padding)
    w_out = conv_output_size(w, d, stride, padding)
    st, p = stride, padding
    # blocks[a, b] holds every window's (a, b) tap: rows in vec order, columns
    # image-major.  It is allocated before the scratch copy, so that freeing the
    # scratch leaves no hole below it in the heap; that hole raised peak RSS by
    # one patch matrix (10 MB for a 32x32x64 d5 float64 image).
    blocks = np.empty((d, d, c, *batch, h_out, w_out), dtype=x.dtype)
    channels_first = x.transpose((x.ndim - 1, *range(x.ndim - 1)))
    if p == 0 and channels_first.flags.c_contiguous:
        padded = channels_first
    else:
        # one channel-first copy of the zero-padded input: (c, *batch, h_p, w_p).
        # A channel-last image with c > 1 is copied too: slicing its windows
        # straight from the strided view was slower than this copy.
        padded = np.zeros((c, *batch, h + 2 * p, w + 2 * p), dtype=x.dtype)
        padded[..., p : p + h, p : p + w] = channels_first
    for a in range(d):
        for b in range(d):
            blocks[a, b] = padded[..., a : a + st * h_out : st, b : b + st * w_out : st]
    cols = blocks.reshape(d * d * c, -1)
    return PatchMatrix(cols, d, stride, padding, x.shape, h_out, w_out)


def col2im(grad_cols: np.ndarray, pm: PatchMatrix) -> np.ndarray:
    """Scatter-add patch-column gradients back onto the input grid.

    Adjoint of :func:`im2col`: overlapping positions accumulate.  The
    result has the input's shape ``pm.in_shape`` and is a view of a
    channel-first ``(c, *batch, H, W)`` buffer (padding cropped): each
    tap's rows of ``grad_cols`` are added into it as one contiguous
    block, taps in row-major ``(a, b)`` order.
    """
    if grad_cols.shape != pm.cols.shape:
        raise ShapeError(
            f"grad_cols shape {grad_cols.shape} does not match patch matrix"
        )
    *batch, h, w, c = pm.in_shape
    d, st, p = pm.d, pm.stride, pm.padding
    grad_pad = np.zeros((c, *batch, h + 2 * p, w + 2 * p), dtype=grad_cols.dtype)
    blocks = grad_cols.reshape(d, d, c, *batch, pm.h_out, pm.w_out)
    for a in range(d):
        for b in range(d):
            grad_pad[..., a : a + st * pm.h_out : st, b : b + st * pm.w_out : st] += blocks[a, b]
    return grad_pad[..., p : p + h, p : p + w].transpose((*range(1, len(pm.in_shape)), 0))


def conv_reference(
    x: np.ndarray,
    f: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    bias: float = 0.0,
) -> np.ndarray:
    """Ground-truth single-filter convolution.

    ``y[p, q]`` is the sum over the receptive field of elementwise
    products, plus ``bias``.  Bit-identical to a matmul over im2col
    columns because both run the same fixed-order reduction.
    """
    x = _check_input(x)
    f = np.asarray(f)
    if f.ndim != 3 or f.shape[0] != f.shape[1]:
        raise ShapeError(f"expected square d x d x c filter, got shape {f.shape}")
    if f.shape[2] != x.shape[2]:
        raise ShapeError(
            f"filter has {f.shape[2]} channels but input has {x.shape[2]}"
        )
    pm = im2col(x, f.shape[0], stride, padding)
    y = column_sums(pm.cols * vec(f)[:, None]) + bias
    return y.reshape(pm.h_out, pm.w_out)


def matmul_conv(patches: PatchMatrix, filters: np.ndarray) -> np.ndarray:
    """Convolution in matrix form: ``Y = X^T F``.

    ``filters`` is ``(d*d*c, n)``; the returned ``(l, n)`` matrix holds the
    full feature map of filter ``i`` in column ``i``.  A C ``einsum``
    contraction, unoptimized as by default and so never BLAS, writes the
    maps as contiguous rows of an ``(n, l)`` array and the transpose is
    returned.  Its inner loop runs along each row, so every output starts
    from ``+0.0`` and takes its products one patch row after another, the
    order of :func:`column_sums`; a lone column is padded with a zero
    column as there, since einsum would otherwise sum it in SIMD lanes.
    The result therefore matches :func:`conv_reference` exactly.
    """
    cols = patches.cols
    if filters.shape[0] != cols.shape[0]:
        raise ShapeError(
            f"filter rows {filters.shape[0]} != patch rows {cols.shape[0]}"
        )
    n_cols = cols.shape[1]
    cols = _pad_lone_column(cols)
    f_rows = np.ascontiguousarray(filters.T)
    maps = np.empty((f_rows.shape[0], cols.shape[1]), dtype=np.result_type(cols, f_rows))
    np.einsum("vl,nv->nl", cols, f_rows, out=maps)
    return np.ascontiguousarray(maps[:, :n_cols]).T
