"""Reference convolution: patch extraction and exact, fixed-order kernels.

Everything else in the package is checked against this module, so the two
conventions below are load-bearing and must never drift:

Canonical vectorization order.
    A ``d x d x c`` block (filter, mask, or input patch) is flattened
    row-major with the channel index innermost::

        vec index v = (p * d + q) * c + ch

    for spatial position ``(p, q)`` and channel ``ch``.  This is exactly
    ``block.reshape(-1)`` on an array of shape ``(d, d, c)``.  Patch-matrix
    columns, stacked filter matrices, and bit-packed masks all share this
    order; mixing orders would silently misalign mask bits with filter
    entries.

Fixed reduction order.
    All dot products are computed as an elementwise product followed by
    ``column_sums``, which adds each column's rows one after another,
    also when there is a single column (one output position).  The order
    is fixed by the number of rows, never by thread count, by the number
    of columns or by which entries happen to be zero, so a masked filter
    whose masked entries stay in place as zeros reproduces the reference
    convolution bit for bit.

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
    two or more columns accumulates row by row.  numpy would sum a lone
    ``(v, 1)`` column pairwise, as it does a 1-d array, so that column
    is reduced beside a zero column instead.  Every column is therefore
    summed row by row, in an order that depends only on ``v``: a batch
    whose images each have one output position is reduced like the
    single images, and exact zeros left in place never change the bits.
    Every convolution path in the package funnels its reduction through
    here.
    """
    if products.shape[1] == 1:
        return np.add.reduce(np.hstack([products, np.zeros_like(products)]), axis=0)[:1]
    return np.add.reduce(products, axis=0)


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
    if x.ndim == 2:
        x = x[:, :, None]
    if x.ndim != 3 and not (batch_ok and x.ndim == 4):
        allowed = "H x W x c input or B x H x W x c batch" if batch_ok else "H x W x c input"
        raise ShapeError(f"expected {allowed}, got shape {x.shape}")
    return x


def im2col(x: np.ndarray, d: int, stride: int = 1, padding: int = 0) -> PatchMatrix:
    """Extract overlapping patches of ``x`` as columns.

    ``x`` is one ``H x W x c`` image or a ``B x H x W x c`` batch.  Padded
    cells read as zero.  Raises :class:`ShapeError` when the kernel
    exceeds the padded input.
    """
    x = _check_input(x, batch_ok=True)
    in_shape = x.shape
    h, w, c = in_shape[-3:]
    h_out = conv_output_size(h, d, stride, padding)
    w_out = conv_output_size(w, d, stride, padding)
    if padding:
        batch_pad = ((0, 0),) * (x.ndim - 3)
        x = np.pad(x, batch_pad + ((padding, padding), (padding, padding), (0, 0)))
    # windows: (..., h_p - d + 1, w_p - d + 1, c, d, d) -> stride slice -> reorder
    windows = np.lib.stride_tricks.sliding_window_view(x, (d, d), axis=(-3, -2))
    windows = windows[..., ::stride, ::stride, :, :, :]
    # (..., h_out, w_out, c, d, d) -> (..., h_out, w_out, d, d, c) -> (B*l, d*d*c)
    patches = np.moveaxis(windows, -3, -1).reshape(-1, d * d * c)
    cols = np.ascontiguousarray(patches.T)
    return PatchMatrix(cols, d, stride, padding, in_shape, h_out, w_out)


def col2im(grad_cols: np.ndarray, pm: PatchMatrix) -> np.ndarray:
    """Scatter-add patch-column gradients back onto the input grid.

    Adjoint of :func:`im2col`: overlapping positions accumulate.  The
    result has the input's shape ``pm.in_shape``.
    """
    if grad_cols.shape != pm.cols.shape:
        raise ShapeError(
            f"grad_cols shape {grad_cols.shape} does not match patch matrix"
        )
    *batch, h, w, c = pm.in_shape
    d, st, p = pm.d, pm.stride, pm.padding
    grad_pad = np.zeros((*batch, h + 2 * p, w + 2 * p, c), dtype=grad_cols.dtype)
    blocks = grad_cols.T.reshape(*batch, pm.h_out, pm.w_out, d, d, c)
    for a in range(d):
        for b in range(d):
            grad_pad[
                ..., a : a + st * pm.h_out : st, b : b + st * pm.w_out : st, :
            ] += blocks[..., a, b, :]
    return grad_pad[..., p : p + h, p : p + w, :]


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
    if f.ndim == 2:
        f = f[:, :, None]
    if f.ndim != 3 or f.shape[0] != f.shape[1]:
        raise ShapeError(f"expected square d x d x c filter, got shape {f.shape}")
    if f.shape[2] != x.shape[2]:
        raise ShapeError(
            f"filter has {f.shape[2]} channels but input has {x.shape[2]}"
        )
    pm = im2col(x, f.shape[0], stride, padding)
    y = column_sums(pm.cols * vec(f)[:, None]) + bias
    return y.reshape(pm.h_out, pm.w_out)


def matmul_conv(patches: PatchMatrix | np.ndarray, filters: np.ndarray) -> np.ndarray:
    """Convolution in matrix form: ``Y = X^T F``.

    ``filters`` is ``(d*d*c, n)`` (or a single ``(d*d*c,)`` column); the
    returned ``(l, n)`` matrix holds the full feature map of filter ``i``
    in column ``i``.  Computed one filter at a time through
    :func:`column_sums` so the result matches :func:`conv_reference`
    exactly.
    """
    cols = patches.cols if isinstance(patches, PatchMatrix) else np.asarray(patches)
    filters = np.asarray(filters)
    single = filters.ndim == 1
    if single:
        filters = filters[:, None]
    if filters.shape[0] != cols.shape[0]:
        raise ShapeError(
            f"filter rows {filters.shape[0]} != patch rows {cols.shape[0]}"
        )
    out = np.empty((cols.shape[1], filters.shape[1]), dtype=np.result_type(cols, filters))
    for i in range(filters.shape[1]):
        out[:, i] = column_sums(cols * filters[:, i][:, None])
    return out[:, 0] if single else out
