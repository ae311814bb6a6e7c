import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from maskconv import convref
from maskconv.convref import ShapeError, conv_output_size, conv_reference
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
from maskconv.network import MaskedConv, build_small_cnn

ROOT = Path(__file__).resolve().parents[1]


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
        layer_grads = [grad_x, conv.grad_filters, conv.grad_biases, conv.grad_masks]
        for g in [*layer_grads, *(a for s in singles for a in astuple(s))]:
            assert g is None or g.dtype == dtype
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
def test_batch_of_one_position_images_equals_singles_and_reference(variant, dtype):
    # each image's products are one column, the batch's are three: both
    # must be reduced in the same order
    rng = np.random.default_rng(20 + VARIANTS.index(variant))
    checked = 0
    for trial in range(12):
        conv = random_conv(rng, variant, trial, dtype)
        spec, bank, masks = conv.spec, conv.bank(), conv.masks
        h = max(1, spec.d - 2 * spec.padding)
        if conv_output_size(h, spec.d, spec.stride, spec.padding) != 1:
            continue  # padding too wide for any one-position input
        xb = rng.normal(size=(3, h, h, spec.c)).astype(dtype)
        yb = conv.forward(xb)
        assert yb.shape == (3, 1, 1, spec.n_secondary)
        singles = np.stack([bank_forward(x, bank, masks, spec) for x in xb])
        assert np.array_equal(yb, singles)
        fhat = secondary_matrix(bank, masks, spec)
        for i in range(3):
            for j in range(spec.n_secondary):
                f = fhat[:, j].reshape(spec.d, spec.d, spec.c)
                bias = 0.0 if conv.biases is None else conv.biases[j]
                ref = conv_reference(xb[i], f, spec.stride, spec.padding, bias)
                assert np.array_equal(yb[i, :, :, j], ref)
        checked += 1
    assert checked >= 4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", VARIANTS)
def test_backward_without_input_grad_keeps_parameter_grads(variant, dtype):
    rng = np.random.default_rng(30 + VARIANTS.index(variant))
    for trial in range(6):
        conv = random_conv(rng, variant, trial, dtype)
        spec, bank, masks = conv.spec, conv.bank(), conv.masks
        h, w = rng.integers(spec.d, spec.d + 5, size=2)
        xb = rng.normal(size=(2, h, w, spec.c)).astype(dtype)
        grad_y = rng.normal(size=conv.forward(xb).shape).astype(dtype)
        full = bank_backward(grad_y, xb, bank, masks, spec)
        params = bank_backward(grad_y, xb, bank, masks, spec, input_grad=False)
        assert full.x is not None and params.x is None
        for a, b in [
            (full.filters, params.filters),
            (full.biases, params.biases),
            (full.masks, params.masks),
            (full.secondary, params.secondary),
        ]:
            assert (a is None and b is None) or np.array_equal(a, b)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(variant="standard"),
        dict(variant="spatial", conv1_maps=9),
        dict(variant="learnable", strategy="separate", s=2),
    ],
)
def test_network_backward_skips_first_conv_input_grad(kwargs, monkeypatch):
    net = build_small_cnn(conv2_maps=8, hidden=16, input_hw=12, seed=3, **kwargs)
    rng = np.random.default_rng(4)
    xb = rng.normal(size=(2, 12, 12, 1)).astype(np.float32)
    grad = rng.normal(size=net.forward(xb).shape).astype(np.float32)
    scatters = []
    col2im = convref.col2im
    monkeypatch.setattr(convref, "col2im", lambda *a: scatters.append(1) or col2im(*a))
    assert net.backward(grad) is None
    assert len(scatters) == 1  # conv2's input gradient only
    conv1 = net.layers[0]
    for layer in reversed(net.layers[1:]):
        grad = layer.backward(grad)
    direct = bank_backward(grad, xb, conv1.bank(), conv1.masks, conv1.spec)
    assert np.array_equal(conv1.grad_filters, direct.filters)
    assert np.array_equal(conv1.grad_biases, direct.biases)
    if direct.masks is not None:
        assert np.array_equal(conv1.grad_masks, direct.masks)


_THREADED_BACKWARD = """
import hashlib
from dataclasses import astuple
import numpy as np
from maskconv.layers import LayerSpec, bank_backward
from maskconv.network import MaskedConv
for dtype in (np.float32, np.float64):
    spec = LayerSpec("learnable", d=3, c=8, k=4, s=2, strategy="separate", padding=1)
    conv = MaskedConv(spec, seed=5, dtype=dtype)
    rng = np.random.default_rng(6)
    xb = rng.normal(size=(4, 16, 16, 8)).astype(dtype)
    grad_y = rng.normal(size=conv.forward(xb).shape).astype(dtype)
    grads = bank_backward(grad_y, xb, conv.bank(), conv.masks, spec)
    for a in astuple(grads):
        print(a.dtype, hashlib.sha256(a.tobytes()).hexdigest())
"""


def test_backward_bits_do_not_depend_on_thread_count():
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", _THREADED_BACKWARD],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert len(outputs[0].splitlines()) == 10
    assert outputs[0] == outputs[1]


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
