"""Masks that repeat an earlier mask of their group: the forward runs each
distinct masked secondary once and copies its map to the repeats.

Every case equals, byte for byte, ``forward_each_secondary`` (the forward
of one secondary at a time, so no map is a copy) through ``bank_forward``,
``MaskedConv.forward`` and ``cached_forward``, and map by map equals
``conv_reference`` of the masked filter plus its bias, NaN taken as one
NaN.  Inputs hold signed zeros, or ``inf``, ``-inf`` and NaN.  Each bias
is distinct, so a map copied from the wrong primary or mask, or copied
after the biases are added, shows.  A ``contract_spy`` pins the
multiply-adds a forward issues: ``predict_counts``' ``mul_fp32`` for
all-ones bits, and those of every secondary for fair-coin bits, which
repeat no mask; and the one input-gradient contraction a backward issues
over every patch row and masked secondary, whatever the bits.
"""

import numpy as np
import pytest

from maskconv.convref import conv_reference, im2col
from maskconv.fastinfer import cached_forward, masks_for_spec, predict_counts
from maskconv.layers import STRATEGIES, LayerSpec, bank_backward, bank_forward, mask_layout, random_bank
from maskconv.masks import from_dense
from maskconv.network import MaskedConv

from oracles import forward_each_secondary, secondary_matrix_loop
from test_differential import assert_same_bits, assert_same_bits_any_nan

D, C, K = 3, 2, 3
V = D * D * C


def distinct_columns(rng, count):
    """``count`` fair-coin masks of ``V`` bits, no two equal and none all ones."""
    while True:
        bits = rng.random((V, count)) < 0.5
        if len({col.tobytes() for col in bits.T}) == count and not bits.all(axis=0).any():
            return bits


# name -> (strategy, s, the first equal mask of each group's masks, or None for all ones)
CASES = {
    "shared all ones s=1": ("shared", 1, None),
    "shared all ones s=4": ("shared", 4, None),
    "separate all ones s=1": ("separate", 1, None),
    "separate all ones s=4": ("separate", 4, None),
    "random-fixed all ones s=4": ("random-fixed", 4, None),
    # masks A B C B: the second B repeats the first
    "shared two equal among distinct": ("shared", 4, [[0, 1, 2, 1]]),
    # primary 0 repeats no mask, primary 1 repeats A three times, primary 2
    # repeats its first two masks in reverse
    "separate some primaries repeat": ("separate", 4, [[0, 1, 2, 3], [0, 1, 0, 0], [0, 1, 1, 0]]),
}


def case_masks(name, rng):
    strategy, s, first = CASES[name]
    spec = LayerSpec("learnable", strategy=strategy, s=s, d=D, c=C, k=K, padding=1)
    if first is None:
        bits = np.ones((V, s * spec.mask_groups), dtype=bool)
    else:
        first = np.array(first)
        columns = distinct_columns(rng, first.size)
        # each group draws its own masks, indexed by its first-equal pattern
        bits = np.concatenate([columns[:, g * s + row] for g, row in enumerate(first)], axis=1)
    return spec, from_dense(bits, spec.mask_kind, D, C, s, spec.mask_groups), first


def case_input(kind, dtype, rng, shape):
    x = rng.normal(size=(*shape, C)).astype(dtype)
    flat = x.reshape(-1)
    if kind == "signed zeros":
        flat[::3] = -0.0
    else:
        flat[rng.choice(flat.size, size=3, replace=False)] = (np.inf, -np.inf, np.nan)
    return x


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("inputs", ["signed zeros", "non-finite"])
@np.errstate(invalid="ignore")  # 0 * inf in the reference's masked filters
def test_repeated_masks_copy_the_maps_of_their_first(name, dtype, inputs):
    rng = np.random.default_rng([list(CASES).index(name), np.dtype(dtype).itemsize, len(inputs)])
    spec, masks, first = case_masks(name, rng)
    if first is None:
        assert (spec.s == 1) == (mask_layout(spec, masks).sources is None)
    else:
        assert np.array_equal(mask_layout(spec, masks).sources, first)
    bank = random_bank(spec, int(rng.integers(2**31)), dtype=dtype)
    bank.biases = rng.permutation(spec.n_secondary).astype(dtype) + 0.5
    bank.filters.reshape(-1)[::4] = -0.0
    fhat = secondary_matrix_loop(bank, masks, spec)
    for shape in ((5, 5), (2, 5, 5)):
        x = case_input(inputs, dtype, rng, shape)
        want = forward_each_secondary(im2col(x, D, padding=1), bank, masks, spec)
        assert_same_bits(bank_forward(x, bank, masks, spec), want)
        assert_same_bits(cached_forward(x, bank, masks, spec)[0], want)
        batch = x.reshape(-1, *x.shape[-3:])
        assert_same_bits(MaskedConv(spec, bank, masks).forward(batch), want.reshape(-1, *want.shape[-3:]))
        for b, image in enumerate(batch):
            for n in range(spec.n_secondary):
                f = fhat[:, n].reshape(D, D, C)
                ref = conv_reference(image, f, padding=1, bias=bank.biases[n])
                got = want.reshape(-1, *want.shape[-3:])[b, ..., n]
                assert_same_bits_any_nan(got, ref)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("s", [1, 4])
def test_all_ones_forward_issues_the_predicted_muls(strategy, s, contract_spy):
    spec = LayerSpec("learnable", strategy=strategy, s=s, d=D, c=C, k=K)
    masks = from_dense(np.ones((V, s * spec.mask_groups)), spec.mask_kind, D, C, s, spec.mask_groups)
    conv = MaskedConv(spec, random_bank(spec, 3, dtype=np.float32), masks)
    x = np.random.default_rng(3).normal(size=(2, 6, 7, C)).astype(np.float32)
    predicted = predict_counts(spec, *spec.output_shape(6, 7)[:2]).mul_fp32 * len(x)
    for forward in (
        lambda: bank_forward(x, conv.bank, masks, spec),
        lambda: conv.forward(x),
        lambda: cached_forward(x, conv.bank, masks, spec),
    ):
        contract_spy.calls.clear()
        forward()
        assert contract_spy.macs() == predicted == K * V * 4 * 5 * len(x)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fair_coin_forward_issues_every_secondarys_macs(strategy, contract_spy):
    spec = LayerSpec("learnable", strategy=strategy, s=4, d=D, c=C, k=K)
    masks = masks_for_spec(spec, seed=8)
    assert mask_layout(spec, masks).sources is None
    x = np.random.default_rng(8).normal(size=(2, 6, 7, C)).astype(np.float32)
    conv = MaskedConv(spec, random_bank(spec, 8, dtype=np.float32), masks)
    positions = 4 * 5 * len(x)
    if strategy == "shared":  # each mask's kept rows, per primary
        want = sum(mask_layout(spec, masks).kept) * K * positions
    else:  # the dense masked filter of every secondary
        want = spec.n_secondary * V * positions
    for forward in (
        lambda: bank_forward(x, conv.bank, masks, spec),
        lambda: conv.forward(x),
        lambda: cached_forward(x, conv.bank, masks, spec),
    ):
        contract_spy.calls.clear()
        forward()
        assert contract_spy.macs() == want


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fair_coin_backward_issues_one_input_gradient_contraction(strategy, contract_spy):
    spec = LayerSpec("learnable", strategy=strategy, s=4, d=D, c=C, k=K)
    masks = masks_for_spec(spec, seed=8)
    x = np.random.default_rng(8).normal(size=(2, 6, 7, C)).astype(np.float32)
    bank = random_bank(spec, 8, dtype=np.float32)
    grad_y = np.ones((*x.shape[:1], *spec.output_shape(6, 7)), dtype=np.float32)
    issued = []
    for input_grad in (False, True):
        contract_spy.calls.clear()
        bank_backward(grad_y, x, bank, masks, spec, input_grad=input_grad)
        issued.append((len(contract_spy.calls), contract_spy.macs()))
    (calls, macs), (calls_x, macs_x) = issued
    assert (calls_x - calls, macs_x - macs) == (1, spec.n_secondary * V * 4 * 5 * len(x))
