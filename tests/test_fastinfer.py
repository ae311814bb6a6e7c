import numpy as np
import pytest

from maskconv.fastinfer import OpCounts, cached_forward, masks_for_spec, predict_counts
from maskconv.layers import LayerSpec, bank_forward, random_bank
from maskconv.masks import from_dense


def learnable(k, s, d, c, strategy="separate", **kw):
    return LayerSpec("learnable", d=d, c=c, k=k, s=s, strategy=strategy, **kw)


ALL_SPECS = [
    LayerSpec("standard", d=3, c=2, k=4),
    LayerSpec("spatial", d=5, c=2, k=2, stride=2, padding=1),
    LayerSpec("spatial", d=4, c=1, k=3),
    LayerSpec("channel", d=3, c=8, k=2, c_hat=4, g=4),
    learnable(2, 3, 3, 2, "shared"),
    learnable(3, 2, 3, 2, "separate", padding=1),
    learnable(2, 2, 1, 6, "random-fixed"),
]


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_cached_equals_reference_forward(spec):
    for seed in range(7):
        rng = np.random.default_rng(seed)
        bank = random_bank(spec, seed)
        if spec.has_biases:
            bank.biases = rng.normal(size=spec.n_secondary)
        masks = masks_for_spec(spec, seed)
        x = rng.normal(size=(7, 6, spec.c))
        y_fast, _ = cached_forward(x, bank, masks, spec)
        y_ref = bank_forward(x, bank, masks, spec)
        assert np.max(np.abs(y_fast - y_ref)) == 0.0


def test_cached_all_ones_single_mask_counts():
    # k=1, s=1, all-ones learnable mask on a single patch: every tally = d*d*c
    spec = learnable(1, 1, 3, 2, "shared")
    bank = random_bank(spec, seed=0)
    masks = from_dense(np.ones((18, 1)), "learned-shared", 3, 2, 1)
    x = np.random.default_rng(0).normal(size=(3, 3, 2))
    _, counts = cached_forward(x, bank, masks, spec)
    assert counts.mul_fp32 == 18
    assert counts.mask_ops == 18
    assert counts.add_fp32 == 18


def test_cached_counts_worked_example():
    # d=3, c=64, k=16, s=4 (n=64) on an 8x8 output grid
    spec = learnable(16, 4, 3, 64, "separate")
    bank = random_bank(spec, seed=1)
    masks = masks_for_spec(spec, seed=1)
    x = np.random.default_rng(1).normal(size=(10, 10, 64))  # 8x8 valid conv output
    y, counts = cached_forward(x, bank, masks, spec)
    assert y.shape == (8, 8, 64)
    assert counts.mul_fp32 == 589_824
    assert counts.mask_ops == 2_359_296
    assert counts.combined_mul == 663_552.0


def test_combined_mul_identity():
    c = OpCounts(mul_fp32=100, mask_ops=48)
    assert c.combined_mul == 100 + 48 / 32


def test_opcounts_addition_and_memory():
    a = OpCounts(1, 2, 3, 4, 5)
    b = OpCounts(10, 20, 30, 40, 64)
    total = a + b
    assert (total.mul_fp32, total.add_fp32, total.mask_ops) == (11, 22, 33)
    assert total.param_values_fp32 == 44
    assert total.mask_bits == 69
    assert total.memory_bytes == 4 * 44 + (69 + 7) // 8


def test_cached_structural_masks_cost_no_mask_ops():
    spec = LayerSpec("spatial", d=5, c=2, k=2)
    bank = random_bank(spec, seed=3)
    x = np.random.default_rng(3).normal(size=(6, 6, 2))
    _, counts = cached_forward(x, bank, spec.structural_masks(), spec)
    assert counts.mask_ops == 0
    assert counts.mask_bits == 0
    # adds reflect the exact pyramid densities: 25+9+1 ones per channel pair
    l = 2 * 2
    assert counts.add_fp32 == l * 2 * (25 + 9 + 1) * 2


def test_predict_standard_degenerate():
    spec = LayerSpec("standard", d=3, c=4, k=8)
    counts = predict_counts(spec, 5, 5)
    v, l, n = 36, 25, 8
    assert counts.param_values_fp32 == v * n
    assert counts.mask_ops == 0
    assert counts.combined_mul == v * l * n
    assert counts.add_fp32 == v * l * n


# the +-10% ADD expectation presumes enough mask bits to concentrate, so
# the measurement specs carry larger d*d*c than the equality specs above
MEASURE_SPECS = [
    LayerSpec("standard", d=3, c=2, k=4),
    LayerSpec("spatial", d=5, c=2, k=2, stride=2, padding=1),
    LayerSpec("channel", d=3, c=8, k=2, c_hat=4, g=4),
    learnable(2, 4, 5, 16, "shared"),
    learnable(2, 4, 3, 32, "separate", padding=1),
    learnable(4, 2, 3, 32, "random-fixed"),
]


@pytest.mark.parametrize("spec", MEASURE_SPECS)
def test_measured_counts_match_closed_forms(spec):
    # MUL and MASK tallies are exact; ADDs are exact for index-range masks
    # and within +-10% of the half-dense expectation for bit masks
    h_out = (9 + 2 * spec.padding - spec.d) // spec.stride + 1
    predicted = predict_counts(spec, h_out, h_out)
    for seed in range(5, 8):
        x = np.random.default_rng(seed).normal(size=(9, 9, spec.c))
        _, measured = cached_forward(x, random_bank(spec, seed), masks_for_spec(spec, seed), spec)
        assert measured.mul_fp32 == predicted.mul_fp32
        assert measured.mask_ops == predicted.mask_ops
        assert measured.mask_bits == predicted.mask_bits
        assert measured.param_values_fp32 == predicted.param_values_fp32
        if spec.variant == "learnable":
            assert abs(measured.add_fp32 - predicted.add_fp32) <= 0.10 * predicted.add_fp32
        else:
            assert measured.add_fp32 == predicted.add_fp32


@pytest.mark.parametrize(
    "spec",
    [
        LayerSpec("spatial", d=3, c=2, k=2, padding=1),
        LayerSpec("channel", d=1, c=4, k=2, c_hat=2, g=2),
    ],
)
def test_counts_ignore_non_finite_inputs(spec):
    # an inf in a row a mask drops sends the kernel down its full-view
    # fallback; the tally stays the closed form and the output bank_forward's
    x = np.random.default_rng(0).normal(size=(5, 5, spec.c))
    x[0, 0, -1] = np.inf
    bank = random_bank(spec, seed=0)
    y, measured = cached_forward(x, bank, None, spec)
    assert np.isnan(y).any()  # only the fallback forms a 0 * inf
    assert measured == predict_counts(spec, 5, 5)
    assert y.tobytes() == bank_forward(x, bank, None, spec).tobytes()


def test_combined_mul_nonincreasing_in_s():
    # fixed n = 32 secondary maps, k = n / s primaries
    n = 32
    prev = None
    for s in (1, 2, 4, 8, 16, 32):
        spec = learnable(n // s, s, 3, 8, "separate")
        counts = predict_counts(spec, 6, 6)
        assert spec.n_secondary == n
        if prev is not None:
            assert counts.combined_mul <= prev
        prev = counts.combined_mul


def test_s32_multiplication_reduction_ratio():
    # fp32 MULs drop 32x vs standard; combined cost ratio is 1/32 + 1/32
    n = 64
    standard = predict_counts(LayerSpec("standard", d=3, c=16, k=n), 6, 6)
    masked = predict_counts(learnable(n // 32, 32, 3, 16, "separate"), 6, 6)
    assert masked.mul_fp32 * 32 == standard.mul_fp32
    assert masked.combined_mul / standard.combined_mul == pytest.approx(1 / 32 + 1 / 32)


def test_mask_bit_storage_by_strategy():
    v = 9 * 4
    shared = predict_counts(learnable(8, 4, 3, 4, "shared"), 5, 5)
    separate = predict_counts(learnable(8, 4, 3, 4, "separate"), 5, 5)
    assert shared.mask_bits == v * 4
    assert separate.mask_bits == v * 32
    assert shared.param_values_fp32 == separate.param_values_fp32 == v * 8


def test_record_line_fields():
    line = OpCounts(10, 20, 32, 7, 64).record("conv1")
    assert line.startswith("layer=conv1 ")
    fields = dict(part.split("=") for part in line.split())
    assert fields["mul_fp32"] == "10"
    assert fields["combined_mul"] == "11.00"
    assert fields["memory_bytes"] == str(4 * 7 + 8)
