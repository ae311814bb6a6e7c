"""The mask layout: derived once per layer, never stale.

``layers.mask_layout`` keeps each layout on the mask set (bit masks) or
the spec (every other variant).  A counting wrapper around the one
builder, ``MaskLayout.__init__``, shows how often a layout is derived.
"""

import numpy as np
import pytest

from maskconv.convref import im2col
from maskconv.fastinfer import cached_forward, masks_for_spec
from maskconv.layers import LayerSpec, MaskLayout, bank_backward, bank_forward, mask_layout, random_bank
from maskconv.masks import from_dense
from maskconv.network import MaskedConv, build_small_cnn
from maskconv.training import TrainConfig, fit, train_step

from oracles import forward_each_secondary
from test_differential import assert_same_bits

SPECS = [
    LayerSpec("standard", d=3, c=2, k=2),
    LayerSpec("spatial", d=3, c=2, k=2, padding=1),
    LayerSpec("channel", d=3, c=4, k=2, c_hat=2, g=1),
    LayerSpec("learnable", d=3, c=2, k=3, s=2, strategy="shared"),
    LayerSpec("learnable", d=3, c=2, k=3, s=2, strategy="separate"),
    LayerSpec("learnable", d=3, c=2, k=3, s=4, strategy="random-fixed"),
]


@pytest.fixture
def builds(monkeypatch):
    """The ``(spec, masks)`` of every layout derived while the test runs."""
    calls = []
    build = MaskLayout.__init__

    def counting(self, spec, masks=None):
        calls.append((spec, masks))
        build(self, spec, masks)

    monkeypatch.setattr(MaskLayout, "__init__", counting)
    return calls


def state(layout):
    """Every field of a layout, and its selector, as comparable values."""

    def plain(value):
        if isinstance(value, np.ndarray):
            return ("array", value.dtype.str, value.shape, value.tobytes())
        if isinstance(value, slice):
            return ("slice", value.start, value.stop, value.step)
        if isinstance(value, (list, tuple)):
            return tuple(plain(item) for item in value)
        return value

    return {name: plain(value) for name, value in [*vars(layout).items(), ("selector", layout.selector)]}


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.strategy or spec.variant)
def test_a_layer_derives_its_layout_once(spec, builds):
    masks = masks_for_spec(spec, seed=1)
    bank = random_bank(spec, 2, dtype=np.float32)
    x = np.random.default_rng(3).normal(size=(2, 5, 6, spec.c)).astype(np.float32)
    conv = MaskedConv(spec, bank, masks)
    for _ in range(3):
        y = conv.forward(x)
        conv.backward(np.ones_like(y))
        bank_forward(x, bank, masks, spec)
        bank_backward(np.ones_like(y), x, bank, masks, spec)
        cached_forward(x, bank, masks, spec)
    assert len(builds) == 1
    assert mask_layout(spec, masks) is mask_layout(spec, masks)


def test_a_layout_is_keyed_by_the_spec_fields_it_reads(builds):
    spec = LayerSpec("learnable", d=3, c=2, k=3, s=2, strategy="shared")
    masks = masks_for_spec(spec, seed=1)
    first = mask_layout(spec, masks)
    assert mask_layout(LayerSpec("learnable", d=3, c=2, k=3, s=2, strategy="shared", stride=2), masks) is first
    wider = mask_layout(LayerSpec("learnable", d=3, c=2, k=5, s=2, strategy="shared"), masks)
    assert len(wider.columns) == 10 and len(builds) == 2


def test_a_fit_that_flips_no_bit_derives_each_layout_once(builds):
    rng = np.random.default_rng(4)
    images = rng.random((32, 12, 12, 1)).astype(np.float32)
    labels = rng.integers(0, 10, 32)
    model = build_small_cnn("learnable", "separate", s=2, conv1_maps=4, conv2_maps=8, hidden=16, input_hw=12)
    masks = [conv.masks for conv in model.conv_layers()]
    history = fit(model, images, labels, TrainConfig(lr=0.15, lam=0.1, epochs=2, batch=8))
    assert len(history.records) == 8
    assert all(record["flip_rate"] == 0 for record in history.records)
    assert all(conv.masks is kept for conv, kept in zip(model.conv_layers(), masks))  # never replaced
    assert len(builds) == 2  # one per conv layer


def test_mask_bits_are_a_read_only_copy():
    bits = np.ones((18, 2), dtype=bool, order="F")  # the layout a set keeps, so no copy would be forced
    masks = from_dense(bits, "learned-shared", 3, 2, 2)
    with pytest.raises(ValueError, match="read-only"):
        masks.bits[0, 0] = False
    assert bits.flags.writeable
    bits[0, 0] = False  # the caller's array is its own
    assert masks.bits.all()


@pytest.mark.parametrize("strategy", ["shared", "separate"])
def test_a_step_that_flips_bits_leaves_no_stale_layout(strategy):
    model = build_small_cnn("learnable", strategy, s=3, conv1_maps=6, conv2_maps=6, hidden=8, input_hw=12)
    conv = model.conv_layers()[0]
    rng = np.random.default_rng(5)
    images = rng.random((8, 12, 12, 1)).astype(np.float32)
    labels = rng.integers(0, 10, 8)
    # a cleared bit flips on for any negative gradient: clear about half
    masks = conv.masks
    bits = rng.random((masks.bits_per_mask, masks.n_masks)) < 0.5
    conv.masks = from_dense(bits, masks.kind, masks.d, masks.c, masks.s, masks.k)
    stale = mask_layout(conv.spec, conv.masks)
    before = conv.masks
    _, metrics = train_step((images, labels), model, TrainConfig(lr=2.0, lam=0.1, batch=8))
    assert metrics["flip_rate"] > 0 and conv.masks is not before
    layout = mask_layout(conv.spec, conv.masks)
    assert state(layout) == state(MaskLayout(conv.spec, conv.masks))
    assert state(layout) != state(stale)
    x = images[:2]
    want = forward_each_secondary(im2col(x, conv.spec.d), conv.bank, conv.masks, conv.spec)
    assert_same_bits(conv.forward(x), want)
