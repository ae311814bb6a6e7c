"""Seeded differential sweep of the conv core over random layer specs.

Every forward path (``bank_forward``, ``MaskedConv.forward``,
``cached_forward``) must equal the stacked ``conv_reference`` maps bit for
bit, and the vectorized mask layout must reproduce the per-secondary
loops of ``tests/oracles.py`` bit for bit: the secondary filters, the
filter and mask gradients, and the cached-product ADD tally.  ``im2col``
and ``AvgPool2`` must reproduce the oracles' ``sliding_window_view`` and
``mean``/``repeat`` formulations byte for byte, alone and through
training.
"""

import numpy as np
import pytest

from maskconv import convref, fastinfer, layers, network
from maskconv.checkpoint import save_checkpoint
from maskconv.convref import conv_output_size, conv_reference, im2col
from maskconv.fastinfer import cached_forward, masks_for_spec
from maskconv.layers import (
    STRATEGIES,
    VARIANTS,
    LayerSpec,
    bank_backward,
    bank_forward,
    random_bank,
    secondary_matrix,
)
from maskconv.network import AvgPool2, MaskedConv, build_small_cnn
from maskconv.training import TrainConfig, fit

from oracles import (
    avgpool_mean,
    avgpool_repeat_backward,
    cached_adds_loop,
    grads_from_secondary_loop,
    im2col_windows,
    secondary_matrix_loop,
)

N_CASES = 240


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_contiguous_bits(got, want):
    assert got.flags.c_contiguous
    assert_same_bits(got, want)


def random_case(rng, trial):
    """Spec, bank, masks and input for one trial.

    Trials cycle through the variants, the learnable strategies and both
    dtypes; geometry, ``s``, channel windows and batch size are drawn.
    ``k`` and ``s`` reach 9, past the 8 terms below which numpy sums a
    short axis in order anyway, so a reordered accumulation shows.
    """
    variant = VARIANTS[trial % len(VARIANTS)]
    dtype = (np.float32, np.float64)[trial // len(VARIANTS) % 2]
    d, stride, padding = (int(v) for v in rng.integers((1, 1, 0), (6, 3, 3)))
    c, k = (int(v) for v in rng.integers(1, (9, 10)))
    geometry = dict(d=d, c=c, k=k, stride=stride, padding=padding)
    if variant == "channel":
        c_hat = int(rng.integers(1, c + 1))
        g = int(rng.choice([g for g in range(1, c + 1) if (c - c_hat) % g == 0]))
        spec = LayerSpec("channel", c_hat=c_hat, g=g, **geometry)
    elif variant == "learnable":
        strategy = STRATEGIES[trial // len(VARIANTS) % len(STRATEGIES)]
        spec = LayerSpec("learnable", strategy=strategy, s=int(rng.integers(1, 10)), **geometry)
    else:
        spec = LayerSpec(variant, **geometry)
    seed = int(rng.integers(2**31))
    bank = random_bank(spec, seed, dtype=dtype)
    if spec.has_biases:
        bank.biases = rng.normal(size=spec.n_secondary).astype(dtype)
    masks = masks_for_spec(spec, seed)
    h, w = (int(v) for v in rng.integers(max(1, d - 2 * padding), d - 2 * padding + 5, size=2))
    batch = int(rng.integers(0, 4))  # 0: a single image
    shape = (h, w, c) if batch == 0 else (batch, h, w, c)
    return spec, bank, masks, rng.normal(size=shape).astype(dtype)


def reference_maps(x, fhat, biases, spec):
    """``conv_reference`` of each secondary filter, stacked primary-major."""
    images = x if x.ndim == 4 else x[None]
    maps = []
    for image in images:
        channels = []
        for n in range(spec.n_secondary):
            # -0.0 adds nothing, not even to the sign of a zero, like no bias
            bias = -0.0 if biases is None else biases[n]
            f = fhat[:, n].reshape(spec.d, spec.d, spec.c)
            channels.append(conv_reference(image, f, spec.stride, spec.padding, bias))
        maps.append(np.stack(channels, axis=-1))
    return np.stack(maps) if x.ndim == 4 else maps[0]


def test_mask_layout_matches_per_secondary_loops_and_reference():
    rng = np.random.default_rng(20)
    covered = set()
    for trial in range(N_CASES):
        spec, bank, masks, x = random_case(rng, trial)
        covered |= {
            (spec.variant, spec.strategy, x.dtype.name),
            ("d odd", spec.d % 2),
            ("stride", spec.stride),
            ("padding", spec.padding),
            ("batch", x.shape[0] if x.ndim == 4 else 0),
            ("s = 1", spec.variant, spec.s == 1),
            ("c_hat = c", spec.c_hat == spec.c),
        }
        pm = im2col(x, spec.d, spec.stride, spec.padding)
        pm_want = im2col_windows(x, spec.d, spec.stride, spec.padding)
        assert_same_contiguous_bits(pm.cols, pm_want.cols)
        assert (pm.in_shape, pm.out_shape) == (pm_want.in_shape, pm_want.out_shape)

        fhat = secondary_matrix_loop(bank, masks, spec)
        assert_same_bits(secondary_matrix(bank, masks, spec), fhat)
        want = reference_maps(x, fhat, bank.biases, spec)

        assert_same_contiguous_bits(bank_forward(x, bank, masks, spec), want)
        conv = MaskedConv(spec, seed=0, dtype=x.dtype)
        conv.filters, conv.biases, conv.masks = bank.filters, bank.biases, masks
        batch = x if x.ndim == 4 else x[None]
        assert_same_bits(conv.forward(batch), want if x.ndim == 4 else want[None])
        y, counts = cached_forward(x, bank, masks, spec)
        assert_same_bits(y, want)
        h_out = conv_output_size(x.shape[-3], spec.d, spec.stride, spec.padding)
        w_out = conv_output_size(x.shape[-2], spec.d, spec.stride, spec.padding)
        positions = h_out * w_out * (x.shape[0] if x.ndim == 4 else 1)
        assert counts.add_fp32 == cached_adds_loop(masks, spec, positions)

        grad_y = rng.normal(size=want.shape).astype(x.dtype)
        grad_y[..., trial % spec.n_secondary] = 0.0  # a dead map: its products are signed zeros
        grads = bank_backward(grad_y, x, bank, masks, spec)
        grad_f, grad_m = grads_from_secondary_loop(grads.secondary, bank, masks, spec)
        assert_same_bits(grads.filters, grad_f)
        if grad_m is None:
            assert grads.masks is None
        else:
            assert_same_bits(grads.masks, grad_m)
    required = {("s = 1", v, True) for v in VARIANTS} | {("c_hat = c", True)}
    required |= {("d odd", 0), ("d odd", 1), ("stride", 2), ("padding", 2)}
    required |= {("batch", b) for b in range(4)}
    required |= {
        (v, strategy, t)
        for v in VARIANTS
        for strategy in (STRATEGIES if v == "learnable" else (None,))
        for t in ("float32", "float64")
    }
    assert required <= covered


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_avgpool_matches_mean_and_repeat_oracles(dtype):
    rng = np.random.default_rng(21)
    # the small CNN pools conv1's 24x24 maps (8 or 9 of them) and conv2's 10x10
    for hw in (24, 10):
        for c in (4, 8, 9, 16):
            for batch in (1, 16, 64):
                x = rng.normal(size=(batch, hw, hw, c)).astype(dtype)
                pool = AvgPool2()
                assert_same_contiguous_bits(pool.forward(x), avgpool_mean(x))
                grad = rng.normal(size=(batch, hw // 2, hw // 2, c)).astype(dtype)
                assert_same_contiguous_bits(pool.backward(grad), avgpool_repeat_backward(grad))


def trained_checkpoints(tmp_path):
    """Checkpoint bytes of three small CNNs after three training steps each."""
    rng = np.random.default_rng(22)
    images = rng.random((192, 28, 28, 1)).astype(np.float32)
    labels = rng.integers(0, 10, size=192)
    variants = {
        "standard": dict(variant="standard"),
        "spatial": dict(variant="spatial", conv1_maps=9),
        "learn_sep_s2": dict(variant="learnable", strategy="separate", s=2),
    }
    blobs = {}
    for name, kwargs in variants.items():
        model = build_small_cnn(conv2_maps=16, seed=5, **kwargs)
        fit(model, images, labels, TrainConfig(lr=0.15, lam=0.1, epochs=1, seed=5), steps=3)
        save_checkpoint(model, tmp_path / f"{name}.ckpt")
        blobs[name] = (tmp_path / f"{name}.ckpt").read_bytes()
    return blobs


def test_training_checkpoints_match_oracle_patches_and_pooling(tmp_path, monkeypatch):
    live = trained_checkpoints(tmp_path)
    for module in (convref, layers, network, fastinfer):
        monkeypatch.setattr(module, "im2col", im2col_windows)

    def pool_forward(self, x):
        self._in_shape = x.shape
        return avgpool_mean(x)

    monkeypatch.setattr(AvgPool2, "forward", pool_forward)
    monkeypatch.setattr(AvgPool2, "backward", lambda self, grad: avgpool_repeat_backward(grad))
    assert trained_checkpoints(tmp_path) == live
