import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from maskconv import convref, network
from maskconv.convref import ShapeError, conv_output_size, conv_reference
from maskconv.fastinfer import cached_forward
from maskconv.layers import (
    STRATEGIES,
    VARIANTS,
    BankGrads,
    FilterBank,
    LayerSpec,
    bank_backward,
    bank_forward,
)
from maskconv.masks import from_dense
from maskconv.network import MaskedConv, Network, build_small_cnn

from oracles import secondary_matrix_loop

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
    conv = MaskedConv.init(spec, seed=int(rng.integers(2**31)), dtype=dtype)
    if conv.bank.biases is not None:
        conv.bank.biases = rng.normal(size=conv.bank.biases.shape).astype(dtype)
    if conv.trainable_masks:
        groups = 1 if spec.strategy == "shared" else k
        bits = rng.integers(0, 2, size=(d * d * c, groups * spec.s))
        conv.masks = from_dense(bits, conv.masks.kind, d, c, spec.s, k=groups)
    return conv


def reference_masks(conv):
    """The layer's masks, or those its spec derives if it holds none."""
    return conv.spec.structural_masks() if conv.masks is None else conv.masks


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_conv_equals_single_image_core_and_reference(variant, dtype):
    rng = np.random.default_rng(VARIANTS.index(variant))
    tol = 1e-4 if dtype == np.float32 else 1e-10
    for trial in range(6):
        conv = random_conv(rng, variant, trial, dtype)
        spec, bank, masks = conv.spec, conv.bank, conv.masks
        h, w = rng.integers(spec.d, spec.d + 5, size=2)
        xb = rng.normal(size=(3, h, w, spec.c)).astype(dtype)
        yb = conv.forward(xb)
        assert yb.dtype == dtype
        fhat = secondary_matrix_loop(bank, reference_masks(conv), spec)
        for i in range(3):
            assert np.array_equal(yb[i], bank_forward(xb[i], bank, masks, spec))
            for j in range(spec.n_secondary):
                f = fhat[:, j].reshape(spec.d, spec.d, spec.c)
                bias = 0.0 if conv.bank.biases is None else conv.bank.biases[j]
                ref = conv_reference(xb[i], f, spec.stride, spec.padding, bias)
                assert np.array_equal(yb[i, :, :, j], ref)

        grad_y = rng.normal(size=yb.shape).astype(dtype)
        grad_x = conv.backward(grad_y)
        singles = [bank_backward(grad_y[i], xb[i], bank, masks, spec) for i in range(3)]
        assert grad_x.shape == xb.shape
        layer_grads = [grad_x, conv.grads.filters, conv.grads.biases, conv.grads.masks]
        for g in [*layer_grads, *(a for s in singles for a in astuple(s))]:
            assert g is None or g.dtype == dtype
        for i in range(3):
            assert np.array_equal(grad_x[i], singles[i].x)
        # filter, bias and mask grads reduce over B*l at once, so only the
        # summation order differs from adding the per-image grads
        np.testing.assert_allclose(
            conv.grads.filters, sum(g.filters for g in singles), rtol=tol, atol=tol
        )
        if conv.bank.biases is not None:
            np.testing.assert_allclose(
                conv.grads.biases, sum(g.biases for g in singles), rtol=tol, atol=tol
            )
        if spec.variant == "learnable":
            np.testing.assert_allclose(
                conv.grads.masks, sum(g.masks for g in singles), rtol=tol, atol=tol
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
        spec, bank, masks = conv.spec, conv.bank, conv.masks
        h = max(1, spec.d - 2 * spec.padding)
        if conv_output_size(h, spec.d, spec.stride, spec.padding) != 1:
            continue  # padding too wide for any one-position input
        xb = rng.normal(size=(3, h, h, spec.c)).astype(dtype)
        yb = conv.forward(xb)
        assert yb.shape == (3, 1, 1, spec.n_secondary)
        singles = np.stack([bank_forward(x, bank, masks, spec) for x in xb])
        assert np.array_equal(yb, singles)
        fhat = secondary_matrix_loop(bank, reference_masks(conv), spec)
        for i in range(3):
            for j in range(spec.n_secondary):
                f = fhat[:, j].reshape(spec.d, spec.d, spec.c)
                bias = 0.0 if conv.bank.biases is None else conv.bank.biases[j]
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
        spec, bank, masks = conv.spec, conv.bank, conv.masks
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
    net.forward(xb)  # each backward reads the patches of a forward of its own
    for layer in reversed(net.layers[1:]):
        grad = layer.backward(grad)
    direct = bank_backward(grad, xb, conv1.bank, conv1.masks, conv1.spec)
    assert np.array_equal(conv1.grads.filters, direct.filters)
    assert np.array_equal(conv1.grads.biases, direct.biases)
    if direct.masks is not None:
        assert np.array_equal(conv1.grads.masks, direct.masks)


# dense filter matrices (standard, learnable), the three squares of a d = 5
# spatial layer, and channel windows that split c = 8 into four regions
_THREADED_SPECS = """
from maskconv.layers import LayerSpec
specs = (
    LayerSpec("standard", d=5, c=8, k=8, padding=2),
    LayerSpec("learnable", d=3, c=8, k=4, s=2, strategy="separate", padding=1),
    LayerSpec("spatial", d=5, c=8, k=4, padding=2),
    LayerSpec("channel", d=3, c=8, k=4, c_hat=4, g=2, padding=1),
)
"""


_THREADED_BACKWARD = _THREADED_SPECS + """
import hashlib
from dataclasses import astuple
import numpy as np
from maskconv.layers import bank_backward
from maskconv.network import MaskedConv
for dtype in (np.float32, np.float64):
    for spec in specs[1:]:
        conv = MaskedConv.init(spec, seed=5, dtype=dtype)
        rng = np.random.default_rng(6)
        xb = rng.normal(size=(4, 16, 16, 8)).astype(dtype)
        grad_y = rng.normal(size=conv.forward(xb).shape).astype(dtype)
        grads = bank_backward(grad_y, xb, conv.bank, conv.masks, spec)
        for a in astuple(grads):
            if a is not None:
                print(a.dtype, hashlib.sha256(a.tobytes()).hexdigest())
"""


_THREADED_FORWARD = _THREADED_SPECS + """
import hashlib
import numpy as np
from maskconv.layers import bank_forward
from maskconv.network import MaskedConv
for dtype in (np.float32, np.float64):
    for spec in specs:
        conv = MaskedConv.init(spec, seed=5, dtype=dtype)
        rng = np.random.default_rng(6)
        xb = rng.normal(size=(4, 16, 16, 8)).astype(dtype)
        for y in (conv.forward(xb), bank_forward(xb[0], conv.bank, conv.masks, spec)):
            print(y.dtype, hashlib.sha256(y.tobytes()).hexdigest())
"""


def run_under_thread_counts(script):
    """stdout of ``script`` with the BLAS/OpenMP pools at 1 and at 2 threads."""
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    return outputs


def test_backward_bits_do_not_depend_on_thread_count():
    outputs = run_under_thread_counts(_THREADED_BACKWARD)
    # per dtype: learnable filters, biases, masks, x; spatial filters, biases, x; channel filters, x
    assert len(outputs[0].splitlines()) == 18
    assert outputs[0] == outputs[1]


def test_forward_bits_do_not_depend_on_thread_count():
    outputs = run_under_thread_counts(_THREADED_FORWARD)
    assert len(outputs[0].splitlines()) == 16
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_cached_forward_equals_core_and_scales_tallies(variant, dtype):
    rng = np.random.default_rng(10 + VARIANTS.index(variant))
    for trial in range(6):
        conv = random_conv(rng, variant, trial, dtype)
        spec, bank, masks = conv.spec, conv.bank, conv.masks
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


def test_backward_drops_the_patches_and_a_second_backward_raises():
    conv = MaskedConv.init(LayerSpec("standard", d=3, c=1, k=2), seed=0)
    grad = np.ones(conv.forward(np.ones((1, 5, 5, 1), dtype=np.float32)).shape, np.float32)
    conv.backward(grad)
    assert conv._saved is None and conv.grads.x is None  # the input gradient is passed on, not kept
    with pytest.raises(ShapeError, match="bank_backward needs x or the forward's patches"):
        conv.backward(grad)


@pytest.mark.parametrize("shape", [(2, 6, 6), (6, 6, 1), (1, 2, 6, 6, 1)])
def test_masked_conv_rejects_input_that_is_not_a_4d_batch(shape):
    conv = MaskedConv.init(LayerSpec("standard", d=3, c=1, k=2), seed=0)
    with pytest.raises(ShapeError):
        conv.forward(np.zeros(shape))


def test_update_masks_returns_the_exact_count_of_flipped_bits():
    spec = LayerSpec("learnable", d=3, c=2, k=2, strategy="separate", s=2)
    conv = MaskedConv.init(spec, seed=0)
    net = Network([conv])
    total = 4 * 18  # k*s masks of d*d*c bits

    def step(entries):
        conv.grads = BankGrads(None, None, np.zeros((18, 4)), None)
        for index, value in entries.items():
            conv.grads.masks[index] = value
        return conv.update_masks(lr=1.0, lam=0.0)

    assert step({}) == (0, total)  # a fresh layer: every bit already on
    # three on-bits step below zero, and one lands exactly on 0: an off bit
    assert step({(0, 0): 1.25, (5, 1): 1.5, (17, 3): 2.0, (7, 2): 1.0}) == (4, total)
    assert conv.masks.ones_counts().tolist() == [17, 17, 17, 17]
    assert step({(5, 1): -0.5}) == (1, total)  # one bit turns back on
    assert step({(0, 0): 0.0, (7, 2): 0.0}) == (0, total)  # off bits stay off
    conv.grads.masks[0, 0] = -1.0
    assert net.update_masks(lr=1.0, lam=0.0) == 1 / total
    # random-fixed masks are frozen: no flips and no bits counted
    frozen = MaskedConv.init(LayerSpec("learnable", d=3, c=2, k=2, strategy="random-fixed", s=2), seed=0)
    before = frozen.masks
    assert frozen.update_masks(lr=1.0, lam=0.0) == (0, 0) and frozen.masks is before


def test_conv_forward_refuses_masked_filters_over_the_byte_limit(monkeypatch):
    # a channel layer of 1-channel windows at stride 1 has s = c: its layout's
    # mask bits and full-view masked filters grow as v * n, past any patch or map
    spec = LayerSpec("channel", d=1, c=64, k=1, c_hat=1, g=1)
    conv = MaskedConv(spec, FilterBank(np.ones((1, 1, 1, 64), np.float32)))
    x = np.ones((1, 1, 1, 64), np.float32)
    monkeypatch.setattr(network, "CONV_BYTES_MAX", 64 * 64 * 4 - 1)
    with pytest.raises(ShapeError, match="64 masked filters of 64 values need 16384 bytes"):
        conv.forward(x)
    assert "_layouts" not in vars(spec)  # refused before the layout was derived
    monkeypatch.setattr(network, "CONV_BYTES_MAX", 64 * 64 * 4)
    assert conv.forward(x).shape == (1, 1, 1, 64)


def test_conv_forward_refuses_patches_or_maps_over_the_byte_limit(monkeypatch):
    # per image: 3*3*2 patch rows or 20 maps, each at 4*4 positions of 4 bytes
    for k, rows in ((1, 18), (20, 20)):
        conv = MaskedConv.init(LayerSpec("standard", d=3, c=2, k=k), seed=0)
        monkeypatch.setattr(network, "CONV_BYTES_MAX", 2 * rows * 16 * 4)
        assert conv.forward(np.zeros((2, 6, 6, 2), np.float32)).shape == (2, 4, 4, k)
        with pytest.raises(ShapeError, match=f"needs {3 * rows * 16 * 4} bytes of patches or maps"):
            conv.forward(np.zeros((3, 6, 6, 2), np.float32))
