"""Independent brute-force oracles used across the test suite.

Everything here is written with plain Python loops, deliberately avoiding
the library's im2col/reduction machinery so the two sides of each check
stay independent.
"""

import numpy as np


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
    """(d*d*c, n) masked secondary filters, built one secondary at a time."""
    fmat = bank.filter_matrix()
    if spec.variant == "standard":
        return np.ascontiguousarray(fmat)
    dense = masks.dense(fmat.dtype)
    out = np.empty((fmat.shape[0], spec.n_secondary), dtype=fmat.dtype)
    for i in range(spec.k):
        for j in range(spec.s):
            out[:, i * spec.s + j] = fmat[:, i] * dense[:, masks.column_index(i, j)]
    return out


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
