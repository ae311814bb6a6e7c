"""Independent brute-force oracles used across the test suite.

Most of this is written with plain Python loops, deliberately avoiding
the library's im2col/reduction machinery so the two sides of each check
stay independent.  The rest keeps earlier formulations of library code
(``sliding_window_view`` patches, ``mean`` pooling, a channel-last
``col2im``, per-filter and per-secondary loops, the dense masked-filter
forward and input gradient, the clipped-latent mask step, the per-row
``np.roll`` digit renderer, the one-pass reference convolution, the
per-block orthogonality walk) that the current code must match byte for
byte.  ``secondary_grads_exact`` sums the per-secondary filter gradients
in index order, exact on small-integer operands, and
``bias_and_input_grads_exact`` the bias gradient and dL/dx, scattered
back through ``patches_brute``.  ``secondary_grads`` and
``bias_grads`` call the library to read the per-secondary gradients that
``bank_backward`` keeps to itself, through a standard layer of the
secondary filters; ``forward_each_secondary`` calls it one secondary at
a time, so that no map is a copy of another.
"""

import numpy as np

from maskconv.convref import PatchMatrix, column_sums, conv_output_size
from maskconv.datagen import _FONT, IMAGE_SIZE
from maskconv.layers import FilterBank, LayerSpec, bank_backward, forward_patches
from maskconv.masks import from_dense


def conv_brute(x, f, stride=1, padding=0, bias=0.0):
    """Direct loop convolution. x: (H, W, c), f: (d, d, c)."""
    x = np.asarray(x, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if x.ndim == 2:
        x = x[:, :, None]
    if f.ndim == 2:
        f = f[:, :, None]
    h, w, c = x.shape
    d = f.shape[0]
    xp = np.zeros((h + 2 * padding, w + 2 * padding, c))
    xp[padding : padding + h, padding : padding + w, :] = x
    h_out = (h + 2 * padding - d) // stride + 1
    w_out = (w + 2 * padding - d) // stride + 1
    y = np.zeros((h_out, w_out))
    for p in range(h_out):
        for q in range(w_out):
            acc = 0.0
            for a in range(d):
                for b in range(d):
                    for ch in range(c):
                        acc += xp[p * stride + a, q * stride + b, ch] * f[a, b, ch]
            y[p, q] = acc + bias
    return y


def patches_brute(x, d, stride=1, padding=0):
    """All receptive fields, vectorized in (row, col, channel) order."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        x = x[:, :, None]
    h, w, c = x.shape
    xp = np.zeros((h + 2 * padding, w + 2 * padding, c))
    xp[padding : padding + h, padding : padding + w, :] = x
    h_out = (h + 2 * padding - d) // stride + 1
    w_out = (w + 2 * padding - d) // stride + 1
    cols = []
    for p in range(h_out):
        for q in range(w_out):
            col = []
            for a in range(d):
                for b in range(d):
                    for ch in range(c):
                        col.append(xp[p * stride + a, q * stride + b, ch])
            cols.append(col)
    return np.array(cols).T  # (d*d*c, h_out*w_out)


def masked_forward_brute(x, filters, mask_cols, s, stride=1, padding=0, biases=None):
    """Forward of every masked secondary filter via the loop oracle.

    mask_cols: (d*d*c, s) shared or (d*d*c, k*s) separate, real-valued.
    Returns (h_out, w_out, k*s) stacked primary-major.
    """
    k, d, _, c = filters.shape
    shared = mask_cols.shape[1] == s
    channels = []
    for i in range(k):
        for j in range(s):
            col = j if shared else i * s + j
            fhat = (filters[i].reshape(-1) * mask_cols[:, col]).reshape(d, d, c)
            b = 0.0 if biases is None else biases[i * s + j]
            channels.append(conv_brute(x, fhat, stride, padding, b))
    return np.stack(channels, axis=-1)


def quadratic_loss_brute(x, filters, mask_cols, s, targets, stride=1, padding=0, biases=None):
    """0.5 * sum((forward - targets)^2) with the loop-oracle forward."""
    y = masked_forward_brute(x, filters, mask_cols, s, stride, padding, biases)
    return 0.5 * float(np.sum((y - targets) ** 2))


def finite_difference(fn, x0, step=1e-5):
    """Central-difference gradient of scalar fn at x0, entry by entry."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    flat = x0.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn(x0)
        flat[i] = orig - step
        lo = fn(x0)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def relative_error(analytic, numeric):
    """Max elementwise |a - n| / max(1, |a|, |n|)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def secondary_matrix_loop(bank, masks, spec):
    """(d*d*c, n) masked secondary filters, built one secondary at a time.

    A spatial or channel layer's masks are its spec's when ``masks`` is None.
    """
    fmat = bank.filter_matrix()
    if spec.variant == "standard":
        return np.ascontiguousarray(fmat)
    masks = spec.structural_masks() if masks is None else masks
    dense = masks.dense(fmat.dtype)
    out = np.empty((fmat.shape[0], spec.n_secondary), dtype=fmat.dtype)
    for i in range(spec.k):
        for j in range(spec.s):
            out[:, i * spec.s + j] = fmat[:, i] * dense[:, masks.column_index(i, j)]
    return out


def secondary_grads(grad_y, x, bank, masks, spec):
    """(d*d*c, n) gradients of the masked secondary filters.

    The filter gradient of a standard layer whose ``n`` filters are the
    secondaries: ``bank_backward`` runs the same contraction on the same
    operands for any variant, then maps it onto primaries and masks.
    """
    fhat = secondary_matrix_loop(bank, masks, spec)
    n = spec.n_secondary
    plain = LayerSpec("standard", d=spec.d, c=spec.c, k=n, stride=spec.stride, padding=spec.padding)
    filters = np.ascontiguousarray(fhat.T).reshape(n, spec.d, spec.d, spec.c)
    grads = bank_backward(grad_y, x, FilterBank(filters), None, plain, input_grad=False)
    return grads.filters.reshape(n, -1).T


def secondary_grads_exact(grad_y, x, spec):
    """(d*d*c, n) gradients of the secondary filters as an index-order loop.

    Every entry starts from ``+0.0`` and takes its terms one output
    position at a time, image by image, over :func:`patches_brute`'s
    columns.  Meant for small-integer float64 operands: every product and
    partial sum is then an exact integer, so no summation order can change
    the bits, and ``bank_backward``'s contraction is checked by a sum that
    does not share its order.
    """
    images = x if x.ndim == 4 else x[None]
    grads = grad_y.reshape(len(images), -1, spec.n_secondary)
    ghat = np.zeros((spec.d * spec.d * spec.c, spec.n_secondary))
    for image, grad in zip(images, grads):
        cols = patches_brute(image, spec.d, spec.stride, spec.padding)
        for p in range(cols.shape[1]):
            ghat += cols[:, p : p + 1] * grad[p]
    return ghat


def bias_and_input_grads_exact(grad_y, x, bank, masks, spec):
    """The bias gradient and dL/dx as index-order loops.

    Each bias starts from ``+0.0`` and takes its map's terms one output
    position at a time, image by image.  dL/dx scatters back through
    :func:`patches_brute` of the pixels' own indices: each position's
    patch entry takes every secondary's term, in index order, into the
    input pixel that entry reads, and a padding entry reads none.  Exact
    on small-integer float64 operands, as :func:`secondary_grads_exact`;
    a spatial layer's dL/dx is then divided by ``s``.
    """
    fhat = secondary_matrix_loop(bank, masks, spec)
    images = x if x.ndim == 4 else x[None]
    grads = grad_y.reshape(len(images), -1, spec.n_secondary)
    # 1 + the flat index of the pixel each patch entry reads, 0 for padding
    pixels = np.arange(1, images[0].size + 1).reshape(images.shape[1:])
    taps = patches_brute(pixels, spec.d, spec.stride, spec.padding).astype(int)
    grad_b = np.zeros(spec.n_secondary)
    grad_x = np.zeros(images.shape)
    for grad, image_grad in zip(grads, grad_x.reshape(len(images), -1)):
        for p, g in enumerate(grad):
            for n in range(spec.n_secondary):
                grad_b[n] += g[n]
            for v, tap in enumerate(taps[:, p]):
                for n in range(spec.n_secondary if tap else 0):
                    image_grad[tap - 1] += fhat[v, n] * g[n]
    if spec.variant == "spatial":
        grad_x /= spec.s
    return grad_b, grad_x.reshape(x.shape)


def bias_grads(grad_y, x, bank, masks, spec):
    """The bias gradient of a standard layer whose ``n`` filters are the
    secondaries and whose biases are the layer's: masks do not enter it."""
    fhat = secondary_matrix_loop(bank, masks, spec)
    n = spec.n_secondary
    plain = LayerSpec("standard", d=spec.d, c=spec.c, k=n, stride=spec.stride, padding=spec.padding)
    filters = np.ascontiguousarray(fhat.T).reshape(n, spec.d, spec.d, spec.c)
    return bank_backward(grad_y, x, FilterBank(filters, bank.biases), None, plain, input_grad=False).biases


def core_order(ndim):
    """The conv core's memory order, ``(c, H, W, *batch)``, as axes of ``(*batch, H, W, c)``.

    Patch columns and map rows run over output positions, images innermost.
    """
    return (ndim - 1, ndim - 3, ndim - 2, *range(ndim - 3))


def input_grad(grad_y, x, bank, masks, spec):
    """The input gradient: ``col2im`` of the secondary filters times ``dL/dy``.

    Every patch row's gradient starts from zero and takes the secondaries'
    terms in index order, all its columns at once; spatial layers divide
    the scattered sum by ``s``.
    """
    fhat = secondary_matrix_loop(bank, masks, spec)
    pm = im2col_windows(x, spec.d, spec.stride, spec.padding)
    grads = grad_y.transpose(core_order(grad_y.ndim)).reshape(spec.n_secondary, -1)
    grad_cols = np.zeros(pm.cols.shape, dtype=np.result_type(fhat, grads))
    for n, grad in enumerate(grads):
        grad_cols += fhat[:, n : n + 1] * grad
    grad_x = col2im_channel_last(grad_cols.astype(pm.cols.dtype, copy=False), pm)
    return grad_x / spec.s if spec.variant == "spatial" else grad_x


def grads_from_secondary_loop(ghat, bank, masks, spec):
    """Filter and mask gradients from per-secondary ones, one secondary at a time.

    Each primary's and each mask's accumulator starts at zero and takes
    its secondaries in primary-major order.
    """
    fmat = bank.filter_matrix()
    grad_f = np.zeros_like(fmat)
    grad_m = None
    if spec.variant == "standard":
        grad_f = ghat.copy()
    else:
        dense = masks.dense(fmat.dtype)
        if spec.variant == "learnable":
            grad_m = np.zeros_like(dense)
        for i in range(spec.k):
            for j in range(spec.s):
                col = masks.column_index(i, j)
                g = ghat[:, i * spec.s + j]
                grad_f[:, i] += g * dense[:, col]
                if grad_m is not None:
                    grad_m[:, col] += g * fmat[:, i]
        if spec.variant == "spatial":
            grad_f /= spec.s
    return grad_f.T.reshape(bank.filters.shape), grad_m


def cached_adds_loop(masks, spec, n_positions):
    """Cached-product ADD tally: each secondary adds its mask's popcount per position."""
    v = spec.d * spec.d * spec.c
    total = 0
    for i in range(spec.k):
        for j in range(spec.s):
            ones = v if masks is None else int(masks.dense()[:, masks.column_index(i, j)].sum())
            total += ones * n_positions
    return total


def ortho_per_block(masks):
    """``(ortho_loss, ortho_grad, gram_offdiagonal)`` as a walk over each
    primary's block of ``s`` mask columns, a Gram product per block."""
    m = masks.dense(np.float64)
    v, s = m.shape[0], masks.s
    loss, grads, off_total, off_count = 0.0, [], 0.0, 0
    for start in range(0, m.shape[1], s):
        mb = m[:, start : start + s]
        raw = mb.T @ mb
        diff = raw / v - np.eye(s)
        loss += 0.5 * float(np.sum(diff * diff))
        grads.append((2.0 / v**2) * (mb @ raw) - (2.0 / v) * mb)
        off = ~np.eye(s, dtype=bool)
        off_total += float(np.sum(np.abs((raw / v)[off])))
        off_count += int(off.sum())
    return loss, np.hstack(grads), off_total / off_count if off_count else 0.0


def agent_update_clip(masks, grad_m, lr):
    """The straight-through step as a clipped real latent: ``clip(M - lr*g, 0, 1) > 0``."""
    latent = np.clip(masks.dense(np.float64) - lr * grad_m, 0.0, 1.0)
    return from_dense(latent > 0, masks.kind, masks.d, masks.c, masks.s, masks.k)


def im2col_windows(x, d, stride=1, padding=0):
    """``convref.im2col`` as ``sliding_window_view`` windows, reordered and transposed.

    Columns run over output positions, each position's images innermost.
    """
    x = np.asarray(x)
    if x.ndim == 2:
        x = x[:, :, None]
    in_shape = x.shape
    h, w, c = in_shape[-3:]
    h_out = conv_output_size(h, d, stride, padding)
    w_out = conv_output_size(w, d, stride, padding)
    if padding:
        batch_pad = ((0, 0),) * (x.ndim - 3)
        x = np.pad(x, batch_pad + ((padding, padding), (padding, padding), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (d, d), axis=(-3, -2))
    windows = windows[..., ::stride, ::stride, :, :, :]
    patches = np.moveaxis(windows, -3, -1).reshape(*in_shape[:-3], h_out * w_out, d * d * c)
    patches = np.moveaxis(patches, -2, 0).reshape(-1, d * d * c)
    cols = np.ascontiguousarray(patches.T)
    return PatchMatrix(cols, d, stride, padding, in_shape, h_out, w_out)


def conv_reference_one_pass(x, f, stride=1, padding=0, bias=0.0):
    """``convref.conv_reference`` as one ``(v, l)`` product of every patch
    column with the filter, summed by ``column_sums``."""
    pm = im2col_windows(x, f.shape[0], stride, padding)
    y = column_sums(pm.cols * f.reshape(-1)[:, None]) + bias
    return y.reshape(pm.h_out, pm.w_out)


def avgpool_mean(x):
    """2x2 stride-2 average pooling of a (B, H, W, c) batch as a ``mean``.

    The batch is made C-contiguous first: ``mean`` sums in the order of
    the array's memory layout, so a batch stored batch-innermost would round
    differently in the last bit.
    """
    x = np.ascontiguousarray(x)
    b, h, w, c = x.shape
    return x.reshape(b, h // 2, 2, w // 2, 2, c).mean(axis=(2, 4))


def avgpool_repeat_backward(grad):
    """Gradient of 2x2 average pooling: each output's grad / 4 repeated over its window."""
    up = np.repeat(np.repeat(grad, 2, axis=1), 2, axis=2)
    return (up / 4.0).astype(grad.dtype)


def col2im_channel_last(grad_cols, pm):
    """``convref.col2im`` scattering into a C-contiguous channel-last buffer.

    The transposed columns, batch-innermost, are gathered tap by tap, in the
    same ``(a, b)`` order, into a zero-padded ``(*batch, H_p, W_p, c)`` array.
    """
    *batch, h, w, c = pm.in_shape
    d, st, p = pm.d, pm.stride, pm.padding
    grad_pad = np.zeros((*batch, h + 2 * p, w + 2 * p, c), dtype=grad_cols.dtype)
    blocks = grad_cols.T.reshape(pm.h_out, pm.w_out, *batch, d, d, c)
    blocks = np.moveaxis(blocks, (0, 1), (len(batch), len(batch) + 1))
    for a in range(d):
        for b in range(d):
            grad_pad[
                ..., a : a + st * pm.h_out : st, b : b + st * pm.w_out : st, :
            ] += blocks[..., a, b, :]
    return grad_pad[..., p : p + h, p : p + w, :]


def matmul_conv_loop(patches, filters):
    """``convref.matmul_conv`` one filter at a time.

    Each map's ``(v, l)`` products are reduced over axis 0 into a
    contiguous row (a lone column through ``column_sums``); the ``(l, n)``
    transpose is returned.
    """
    cols = patches.cols
    maps = np.empty((filters.shape[1], cols.shape[1]), dtype=np.result_type(cols, filters))
    for i, row in enumerate(maps):
        products = cols * filters[:, i][:, None]
        if len(row) == 1:
            row[:] = column_sums(products)
        else:
            np.add.reduce(products, axis=0, out=row)
    return maps.T


def forward_patches_loop(pm, bank, masks, spec):
    """``layers.forward_patches`` as ``matmul_conv_loop`` over the explicit masked filters."""
    maps = matmul_conv_loop(pm, secondary_matrix_loop(bank, masks, spec)).T
    if spec.has_biases:
        maps = maps + bank.biases[:, None]
    maps = maps.reshape(spec.n_secondary, pm.h_out, pm.w_out, *pm.in_shape[:-3])
    return maps.transpose(np.argsort(core_order(maps.ndim)))


def forward_each_secondary(pm, bank, masks, spec):
    """``layers.forward_patches`` of a bit-mask layer one secondary at a time.

    Each map is the forward of a layer of one primary and one shared mask,
    the secondary's primary, bias and mask bits, so no mask can repeat
    another and no map is a copy.
    """
    one = LayerSpec(
        "learnable", strategy="shared", s=1, d=spec.d, c=spec.c, k=1, stride=spec.stride, padding=spec.padding
    )
    maps = []
    for i in range(spec.k):
        for j in range(spec.s):
            n = i * spec.s + j
            mask = from_dense(masks.bits[:, [masks.column_index(i, j)]], "learned-shared", spec.d, spec.c, 1)
            maps.append(forward_patches(pm, FilterBank(bank.filters[i : i + 1], bank.biases[n : n + 1]), mask, one))
    return np.concatenate(maps, axis=-1)


def blur_2d(img):
    """3x3 box blur of a 2-D image: nine shifted copies of the zero-padded
    image summed in ``(dy, dx)`` order, then divided by 9."""
    h, w = img.shape
    padded = np.zeros((h + 2, w + 2))
    padded[1 : h + 1, 1 : w + 1] = img
    total = np.zeros((h, w))
    for dy in range(3):
        for dx in range(3):
            total = total + padded[dy : dy + h, dx : dx + w]
    return total / 9.0


def render_digit_rolled(digit, rng, drawn=None):
    """One noisy ``[0, 1]`` rendering of a digit, with a glyph built per
    call, ``np.kron`` scaling and a per-row ``np.roll`` shear; the draws of
    ``datagen.generate_digits``, one image at a time.  ``drawn``, if
    given, gets the image's ``(sy, sx, blurred)``."""
    glyph = np.array([[ch == "#" for ch in row] for row in _FONT[digit]], dtype=np.float64)
    sy = int(rng.integers(2, 4))
    sx = int(rng.integers(2, 4))
    img = np.kron(glyph, np.ones((sy, sx)))
    shear = float(rng.uniform(-0.15, 0.15))
    mid = img.shape[0] / 2
    img = np.stack([np.roll(row, int(round(shear * (r - mid)))) for r, row in enumerate(img)])
    img = img * float(rng.uniform(0.85, 1.0))
    blurred = rng.random() < 0.25
    if blurred:
        img = blur_2d(img)
    if drawn is not None:
        drawn.append((sy, sx, blurred))
    canvas = np.zeros((IMAGE_SIZE, IMAGE_SIZE))
    y0 = int(rng.integers(0, IMAGE_SIZE - img.shape[0] + 1))
    x0 = int(rng.integers(0, IMAGE_SIZE - img.shape[1] + 1))
    canvas[y0 : y0 + img.shape[0], x0 : x0 + img.shape[1]] = img
    canvas += rng.normal(0.0, 0.04, size=canvas.shape)
    return np.clip(canvas, 0.0, 1.0)
