"""Reference convolution: patch extraction and exact, fixed-order kernels.

Everything else in the package is checked against this module, so the
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
    Every product in :func:`matmul_conv`, the layers and the dense head is
    one :func:`_contract`, the rule's one owner: a C ``einsum`` without
    ``optimize``, so single-threaded and never BLAS, that starts each sum
    from ``+0.0``.  Where the summed axis is not contiguous in both
    operands, its inner loop runs along the output's last axis, so each
    output takes its products in index order, as :func:`column_sums` does;
    where it is, as in a filter gradient, its unrolled loop's order is
    fixed by that axis's length.  A lone output would be summed pairwise,
    in 8192-term chunks or in SIMD lanes, so an output whose last axis has
    length 1 is computed beside a zero slice; :func:`column_sums` and the
    layers' bias gradient pad a lone column or map the same way.  No sum's
    order depends on how many outputs sit beside it, on thread count or on
    which entries are zero, so a masked filter whose masked entries stay
    in place as zeros reproduces the reference convolution bit for bit,
    but for the sign and payload of a NaN, which follow operand order.  A
    column of ``-0.0`` products sums to ``+0.0``; any other kernel that
    must match these bits has to start its sums from zero too.  On numpy's
    x86-64 baseline build einsum multiplies and adds separately, with no
    fused multiply-add; a build whose einsum fuses them would break this
    contract, and ``tests/test_differential.py`` is what catches that.

Patch extraction is a pure copy.
    :func:`im2col` moves values and never computes with them, so a patch
    column holds the input's exact bits: the zero-padded input is copied
    once, and one copy of a read-only strided view of its windows fills
    the columns.

Batch-innermost memory order.
    Patch columns run over output positions with a batch's images
    innermost: column ``(p*w_out + q)*B + b`` is output pixel ``(p, q)``
    of image ``b``.  The layers store a ``(B, H, W, c)`` activation, and
    its gradient, as ``(c, H, W, B)`` under the channel-last shape (one
    image as ``(c, H, W)``), so each tap copy, scatter and pooling view
    runs along ``w * B`` values and no layer transposes;
    :func:`_channels_first` and :func:`_channels_last` are the one pair of
    views between the two.  No forward output, input gradient or
    elementwise result depends on that order, but sums over positions,
    the filter, mask and bias gradients, do.

Inputs are ``H x W x c`` arrays (``im2col`` also takes a ``B x H x W x c``
batch), filters ``d x d x c``, outputs ``H' x W'`` with
``H' = (H + 2*padding - d) // stride + 1``.  Padding reads as zero.  Only
square kernels are supported.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

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
    """Sum a 2-d array over axis 0 in the fixed reduction order.

    Row by row from ``+0.0``, a lone column beside a zero column (see the
    module docstring).  :func:`conv_reference` reduces through here, and
    :func:`_contract` accumulates in the same order without forming the
    products array.
    """
    n_cols = products.shape[1]
    if n_cols == 1:
        products = np.hstack([products, np.zeros_like(products)])
    return np.add.reduce(products, axis=0)[:n_cols]


def _contract(subscripts: str, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None):
    """``np.einsum(subscripts, a, b, out=out)`` in the fixed reduction order
    of the module docstring.  Private, since the bench traces each public
    function."""
    inputs, output = subscripts.split("->")
    a_axes, b_axes = inputs.split(",")
    last = output[-1]
    size = a.shape[a_axes.index(last)] if last in a_axes else b.shape[b_axes.index(last)]
    if size != 1:
        return np.einsum(subscripts, a, b, out=out)
    if last in a_axes:
        a = np.concatenate([a, np.zeros_like(a)], axis=a_axes.index(last))
    if last in b_axes:
        b = np.concatenate([b, np.zeros_like(b)], axis=b_axes.index(last))
    result = np.einsum(subscripts, a, b)[..., :1]
    if out is None:
        return result
    out[...] = result
    return out


def vec(block: np.ndarray) -> np.ndarray:
    """Flatten a (d, d, c) block in the canonical order."""
    return np.ascontiguousarray(block).reshape(-1)


@dataclass(frozen=True)
class PatchMatrix:
    """im2col result: one column per output position, canonical vec order.

    ``cols`` has shape ``(d*d*c, h_out*w_out*B)``, each column the
    vectorized receptive field of one output pixel, in the batch-innermost
    order of the module docstring; a single ``(H, W, c)`` image is a batch
    of one without the batch axis.  ``in_shape`` is the shape of the
    (unpadded) input; ``source``, if set, a weak reference to it, which
    keeps no input alive.
    """

    cols: np.ndarray
    d: int
    stride: int
    padding: int
    in_shape: tuple[int, ...]
    h_out: int
    w_out: int
    source: weakref.ref | None = field(default=None, repr=False, compare=False)

    def finite(self) -> bool:
        """Whether every patch value is finite, from the input while it lives.

        The columns copy the input plus zeros, so a finite input makes
        finite ones, at a ``d*d``-th of the reads at stride 1; an inf or
        NaN that no window reads answers ``False`` too.
        """
        x = None if self.source is None else self.source()
        return bool(np.isfinite(self.cols if x is None else x).all())

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


def _channels_first(x: np.ndarray) -> np.ndarray:
    """View ``(*batch, H, W, c)`` as ``(c, H, W, *batch)``, the core's memory order."""
    return x.transpose((x.ndim - 1, x.ndim - 3, x.ndim - 2, *range(x.ndim - 3)))


def _channels_last(x: np.ndarray) -> np.ndarray:
    """View ``(c, H, W, *batch)`` as ``(*batch, H, W, c)``; undoes :func:`_channels_first`."""
    return x.transpose((*range(3, x.ndim), 1, 2, 0))


def im2col(x: np.ndarray, d: int, stride: int = 1, padding: int = 0) -> PatchMatrix:
    """Extract overlapping patches of ``x`` as columns.

    ``x`` is one ``H x W x c`` image or a ``B x H x W x c`` batch.  Padded
    cells read as zero.  Raises :class:`ShapeError` when the kernel
    exceeds the padded input.

    A pure copy (see the module docstring): the windows fill a ``(d, d,
    c, h_out, w_out, *batch)`` buffer whose reshape is ``cols``.  With no
    padding, an input already stored ``(c, H, W, *batch)`` (a batch as the
    layers pass it on, or a one-channel image), or any C-contiguous input
    at ``d = 1``, is viewed in place, so the one copy is the windows'.
    """
    x = _check_input(x, batch_ok=True)
    *batch, h, w, c = x.shape
    h_out = conv_output_size(h, d, stride, padding)
    w_out = conv_output_size(w, d, stride, padding)
    st, p = stride, padding
    # blocks[a, b] holds every window's (a, b) tap: rows in vec order, columns
    # batch-innermost.  It is allocated before the scratch copy, so that freeing
    # the scratch leaves no hole below it in the heap; that hole raised peak RSS
    # by one patch matrix (10 MB for a 32x32x64 d5 float64 image).
    blocks = np.empty((d, d, c, h_out, w_out, *batch), dtype=x.dtype)
    # The windows view ``padded``, the input as (c, h_p, w_p, *batch), through
    # ``owner``, a C-contiguous array starting at the same address.  A
    # channel-last input is read in place only at d = 1, whose one window reads
    # each value once: slicing a larger d's windows from it was slower than
    # copying it channel-first.
    padded = _channels_first(x)
    owner = padded if padded.flags.c_contiguous else x
    if p or not owner.flags.c_contiguous or (owner is x and d > 1):
        owner = np.zeros((c, h + 2 * p, w + 2 * p, *batch), dtype=x.dtype)
        owner[:, p : p + h, p : p + w] = padded
        padded = owner
    # every window as one read-only strided view, built by the ndarray
    # constructor (as_strided costs ~1.5 us more)
    sc, sh, sw, *sb = padded.strides
    windows = np.ndarray(blocks.shape, x.dtype, owner, 0, (sh, sw, sc, st * sh, st * sw, *sb))
    windows.flags.writeable = False
    np.copyto(blocks, windows)
    cols = blocks.reshape(d * d * c, -1)
    return PatchMatrix(cols, d, stride, padding, x.shape, h_out, w_out, weakref.ref(x))


def col2im(grad_cols: np.ndarray, pm: PatchMatrix) -> np.ndarray:
    """Scatter-add patch-column gradients back onto the input grid.

    Adjoint of :func:`im2col`: overlapping positions accumulate.  The
    result has the input's shape ``pm.in_shape`` and is a view of a
    ``(c, H, W, *batch)`` buffer (padding cropped): each tap's rows of
    ``grad_cols`` are added into it as one contiguous block, taps in
    row-major ``(a, b)`` order.
    """
    if grad_cols.shape != pm.cols.shape:
        raise ShapeError(
            f"grad_cols shape {grad_cols.shape} does not match patch matrix"
        )
    *batch, h, w, c = pm.in_shape
    d, st, p = pm.d, pm.stride, pm.padding
    grad_pad = np.zeros((c, h + 2 * p, w + 2 * p, *batch), dtype=grad_cols.dtype)
    blocks = grad_cols.reshape(d, d, c, pm.h_out, pm.w_out, *batch)
    for a in range(d):
        for b in range(d):
            grad_pad[:, a : a + st * pm.h_out : st, b : b + st * pm.w_out : st] += blocks[a, b]
    return _channels_last(grad_pad[:, p : p + h, p : p + w])


REFERENCE_BLOCK_BYTES = 1 << 18
"""Bytes of products :func:`conv_reference` forms at a time: the block of
patch columns it multiplies and sums in one step (at least one column)."""


def conv_reference(
    x: np.ndarray,
    f: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    bias: float = 0.0,
) -> np.ndarray:
    """Ground-truth single-filter convolution.

    ``y[p, q]`` is the sum over the receptive field of elementwise
    products, plus ``bias``, summed by :func:`column_sums`.  Products are
    formed and summed :data:`REFERENCE_BLOCK_BYTES` of columns at a time,
    so the call holds the patch matrix and one block of products; each
    column sums alone, so the bits are those of one pass.
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
    cols, f_col = pm.cols, vec(f)[:, None]
    step = max(1, REFERENCE_BLOCK_BYTES // (len(cols) * np.result_type(cols, f_col).itemsize))
    blocks = [column_sums(cols[:, a : a + step] * f_col) for a in range(0, cols.shape[1], step)]
    y = np.concatenate(blocks) + bias
    return y.reshape(pm.h_out, pm.w_out)


def matmul_conv(patches: PatchMatrix, filters: np.ndarray) -> np.ndarray:
    """Convolution in matrix form: ``Y = X^T F``.

    ``filters`` is ``(d*d*c, n)``; the returned ``(l, n)`` matrix holds the
    full feature map of filter ``i`` in column ``i``, in column order: the
    transpose of one :func:`_contract` into ``(n, l)`` rows, which matches
    :func:`conv_reference` exactly.
    """
    cols = patches.cols
    if filters.shape[0] != cols.shape[0]:
        raise ShapeError(
            f"filter rows {filters.shape[0]} != patch rows {cols.shape[0]}"
        )
    return _contract("vl,nv->nl", cols, np.ascontiguousarray(filters.T)).T
