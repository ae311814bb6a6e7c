import numpy as np
import pytest

from maskconv.convref import ShapeError, conv_reference
from maskconv.fastinfer import cached_forward
from maskconv.layers import (
    STRATEGIES,
    VARIANTS,
    LayerSpec,
    bank_backward,
    bank_forward,
    secondary_matrix,
)
from maskconv.masks import from_dense
from maskconv.network import MaskedConv


def random_conv(rng, variant, trial, dtype):
    """A MaskedConv with random biases and masks; trials cycle through
    odd and even d, stride 1 and 2, and padding 0 to 2."""
    d, stride, padding = trial % 4 + 1, trial % 2 + 1, trial % 3
    c, k = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    geometry = dict(d=d, c=c, k=k, stride=stride, padding=padding)
    if variant == "channel":
        c_hat = int(rng.integers(1, c + 1))
        g = c - c_hat if c_hat < c else 1
        spec = LayerSpec("channel", c_hat=c_hat, g=g, **geometry)
    elif variant == "learnable":
        strategy = STRATEGIES[trial % 3]
        spec = LayerSpec("learnable", s=int(rng.integers(1, 4)), strategy=strategy, **geometry)
    else:
        spec = LayerSpec(variant, **geometry)
    conv = MaskedConv(spec, seed=int(rng.integers(2**31)), dtype=dtype)
    if conv.biases is not None:
        conv.biases = rng.normal(size=conv.biases.shape).astype(dtype)
    if conv.trainable_masks:
        groups = 1 if spec.strategy == "shared" else k
        bits = rng.integers(0, 2, size=(d * d * c, groups * spec.s))
        conv.masks = from_dense(bits, conv.masks.kind, d, c, spec.s, k=groups)
    return conv


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_conv_equals_single_image_core_and_reference(variant, dtype):
    rng = np.random.default_rng(VARIANTS.index(variant))
    tol = 1e-4 if dtype == np.float32 else 1e-10
    for trial in range(6):
        conv = random_conv(rng, variant, trial, dtype)
        spec, bank, masks = conv.spec, conv.bank(), conv.masks
        h, w = rng.integers(spec.d, spec.d + 5, size=2)
        xb = rng.normal(size=(3, h, w, spec.c)).astype(dtype)
        yb = conv.forward(xb)
        assert yb.dtype == dtype
        fhat = secondary_matrix(bank, masks, spec)
        for i in range(3):
            assert np.array_equal(yb[i], bank_forward(xb[i], bank, masks, spec))
            for j in range(spec.n_secondary):
                f = fhat[:, j].reshape(spec.d, spec.d, spec.c)
                bias = 0.0 if conv.biases is None else conv.biases[j]
                ref = conv_reference(xb[i], f, spec.stride, spec.padding, bias)
                assert np.array_equal(yb[i, :, :, j], ref)

        grad_y = rng.normal(size=yb.shape).astype(dtype)
        grad_x = conv.backward(grad_y)
        singles = [bank_backward(grad_y[i], xb[i], bank, masks, spec) for i in range(3)]
        assert grad_x.shape == xb.shape
        for i in range(3):
            assert np.array_equal(grad_x[i], singles[i].x)
        # filter, bias and mask grads reduce over B*l at once, so only the
        # summation order differs from adding the per-image grads
        np.testing.assert_allclose(
            conv.grad_filters, sum(g.filters for g in singles), rtol=tol, atol=tol
        )
        if conv.biases is not None:
            np.testing.assert_allclose(
                conv.grad_biases, sum(g.biases for g in singles), rtol=tol, atol=tol
            )
        if spec.variant == "learnable":
            np.testing.assert_allclose(
                conv.grad_masks, sum(g.masks for g in singles), rtol=tol, atol=tol
            )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_cached_forward_equals_core_and_scales_tallies(variant, dtype):
    rng = np.random.default_rng(10 + VARIANTS.index(variant))
    for trial in range(6):
        conv = random_conv(rng, variant, trial, dtype)
        spec, bank, masks = conv.spec, conv.bank(), conv.masks
        h, w = rng.integers(spec.d, spec.d + 5, size=2)
        xb = rng.normal(size=(3, h, w, spec.c)).astype(dtype)
        y, counts = cached_forward(xb, bank, masks, spec)
        assert np.array_equal(y, bank_forward(xb, bank, masks, spec))
        _, single = cached_forward(xb[0], bank, masks, spec)
        # operations scale with the batch; stored values and bits do not
        assert counts.mul_fp32 == 3 * single.mul_fp32
        assert counts.add_fp32 == 3 * single.add_fp32
        assert counts.mask_ops == 3 * single.mask_ops
        assert (counts.param_values_fp32, counts.mask_bits) == (
            single.param_values_fp32,
            single.mask_bits,
        )


@pytest.mark.parametrize("shape", [(2, 6, 6), (6, 6, 1), (1, 2, 6, 6, 1)])
def test_masked_conv_rejects_input_that_is_not_a_4d_batch(shape):
    conv = MaskedConv(LayerSpec("standard", d=3, c=1, k=2), seed=0)
    with pytest.raises(ShapeError):
        conv.forward(np.zeros(shape))
