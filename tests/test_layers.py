import numpy as np
import pytest

from maskconv.convref import ShapeError, conv_reference, im2col
from maskconv.fastinfer import masks_for_spec
from maskconv.layers import (
    FilterBank,
    LayerSpec,
    bank_backward,
    bank_forward,
    mask_layout,
    naive_sum_forward,
    random_bank,
)
from maskconv.masks import from_dense, random_masks, spatial_masks

from oracles import conv_brute, finite_difference, relative_error, secondary_grads


def relaxed_loss(x, filters, mask_cols, spec, biases, targets):
    """Quadratic loss of the real-relaxed masked forward, via the brute oracle."""
    k, d, _, c = filters.shape
    total = 0.0
    for i in range(k):
        for j in range(spec.s):
            col = j if mask_cols.shape[1] == spec.s else i * spec.s + j
            fhat = (filters[i].reshape(-1) * mask_cols[:, col]).reshape(d, d, c)
            b = 0.0 if biases is None else biases[i * spec.s + j]
            y = conv_brute(x, fhat, spec.stride, spec.padding, b)
            total += 0.5 * np.sum((y - targets[:, :, i * spec.s + j]) ** 2)
    return total


# ----------------------------------------------------------- spatial path


def test_spatial_forward_ones_pyramid():
    spec = LayerSpec("spatial", d=3, c=1, k=1)
    bank = FilterBank(np.ones((1, 3, 3, 1)), np.zeros(2))
    y = bank_forward(np.ones((3, 3, 1)), bank, spec.structural_masks(), spec)
    assert y.shape == (1, 1, 2)
    assert np.array_equal(y[0, 0], [9.0, 1.0])


def test_spatial_forward_degenerates_at_d1():
    x = np.random.default_rng(0).normal(size=(4, 4, 3))
    f = np.random.default_rng(1).normal(size=(1, 1, 3))
    spec = LayerSpec("spatial", d=1, c=3, k=1)
    y = bank_forward(x, FilterBank(f[None], np.zeros(1)), spec.structural_masks(), spec)
    assert y.shape == (4, 4, 1)
    assert np.array_equal(y[:, :, 0], conv_reference(x, f))


def test_spatial_forward_zero_filter_gives_bias_planes():
    biases = np.array([0.5, -1.0, 2.0])
    spec = LayerSpec("spatial", d=5, c=1, k=1)
    bank = FilterBank(np.zeros((1, 5, 5, 1)), biases)
    y = bank_forward(np.ones((5, 5, 1)), bank, spec.structural_masks(), spec)
    for i, b in enumerate(biases):
        assert np.all(y[:, :, i] == b)


def test_spatial_forward_bias_count_mismatch():
    spec = LayerSpec("spatial", d=3, c=1, k=1)
    bank = FilterBank(np.ones((1, 3, 3, 1)), np.zeros(3))
    with pytest.raises(ShapeError):
        bank_forward(np.ones((3, 3, 1)), bank, spec.structural_masks(), spec)


def test_spatial_forward_matches_masked_reference():
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = rng.normal(size=(7, 7, 2))
        f = rng.normal(size=(5, 5, 2))
        biases = rng.normal(size=3)
        spec = LayerSpec("spatial", d=5, c=2, k=1, stride=2, padding=1)
        y = bank_forward(x, FilterBank(f[None], biases), spec.structural_masks(), spec)
        dense = spatial_masks(5, 2).dense()
        for j in range(3):
            fhat = (f.reshape(-1) * dense[:, j]).reshape(5, 5, 2)
            ref = conv_reference(x, fhat, stride=2, padding=1, bias=biases[j])
            assert np.array_equal(y[:, :, j], ref)


# -------------------------------------------------------- naive-sum path


def test_naive_sum_ones_is_ten():
    y = naive_sum_forward(np.ones((3, 3, 1)), np.ones((3, 3, 1)))
    assert y.shape == (1, 1)
    assert y[0, 0] == 10.0  # 9 from the full mask + 1 from the center


def test_naive_sum_collapses_to_weighted_single_conv():
    rng = np.random.default_rng(12)
    for trial in range(20):
        d = int(rng.choice([3, 5]))
        c = int(rng.integers(1, 4))
        x = rng.normal(size=(8, 8, c))
        f = rng.normal(size=(d, d, c))
        b = float(rng.normal())
        y = naive_sum_forward(x, f, b, stride=1, padding=1)
        weight = spatial_masks(d, c).dense().sum(axis=1).reshape(d, d, c)
        collapsed = conv_reference(x, weight * f, stride=1, padding=1, bias=b)
        np.testing.assert_allclose(y, collapsed, rtol=0, atol=1e-10)


def test_naive_sum_d1_is_standard_conv():
    x = np.random.default_rng(4).normal(size=(5, 5, 2))
    f = np.random.default_rng(5).normal(size=(1, 1, 2))
    assert np.array_equal(naive_sum_forward(x, f, 0.25), conv_reference(x, f, bias=0.25))


# ---------------------------------------------------------- channel path


def channel_spec(c, c_hat, g, d=1, k=1, **kw):
    return LayerSpec("channel", d=d, c=c, k=k, c_hat=c_hat, g=g, **kw)


def test_channel_forward_window_sums_by_hand():
    x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 4)
    spec = channel_spec(4, 2, 2)
    y = bank_forward(x, FilterBank(np.ones((1, 1, 1, 4))), spec.structural_masks(), spec)
    assert y.shape == (1, 1, 2)
    assert np.array_equal(y[0, 0], [3.0, 7.0])


def test_channel_forward_full_window_is_standard():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 5, 6))
    f = rng.normal(size=(3, 3, 6))
    spec = channel_spec(6, 6, 1, d=3)
    y = bank_forward(x, FilterBank(f[None]), spec.structural_masks(), spec)
    assert y.shape == (3, 3, 1)
    assert np.array_equal(y[:, :, 0], conv_reference(x, f))


def test_channel_forward_halving_windows():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 6, 16))
    f = rng.normal(size=(3, 3, 16))
    spec = channel_spec(16, 8, 8, d=3)
    y = bank_forward(x, FilterBank(f[None]), spec.structural_masks(), spec)
    assert y.shape == (4, 4, 2)
    # window outputs equal convolutions over the channel slices
    lo = conv_reference(x[:, :, :8], f[:, :, :8])
    hi = conv_reference(x[:, :, 8:], f[:, :, 8:])
    np.testing.assert_allclose(y[:, :, 0], lo, rtol=0, atol=1e-12)
    np.testing.assert_allclose(y[:, :, 1], hi, rtol=0, atol=1e-12)


def test_channel_spec_divisibility_errors():
    with pytest.raises(ShapeError):
        channel_spec(16, 8, 3)
    with pytest.raises(ShapeError):
        channel_spec(16, 20, 4)



@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(variant="spatial", c=2, c_hat=1, g=4), "spatial layers take no c_hat or g"),
        (dict(variant="standard", strategy="shared"), "standard layers take no strategy"),
        (dict(variant="channel", c=4, c_hat=2, g=2, strategy="random-fixed"), "channel layers take no strategy"),
        (dict(variant="channel", c=4, c_hat=2, g=2, s=3), "channel s must be"),
        (dict(variant="learnable", strategy="shared", s=2, c_hat=1, g=1), "learnable layers take no c_hat"),
        (dict(variant="standard", lam=float("nan")), "orthogonality weight must be >= 0"),
    ],
)
def test_layer_spec_rejects_fields_its_variant_ignores(fields, message):
    fields = {"d": 3, "c": 1, "k": 1, **fields}
    with pytest.raises(ShapeError, match=message):
        LayerSpec(**fields)
    # a field given at the value the variant implies is accepted
    assert LayerSpec("channel", d=3, c=4, k=1, c_hat=2, g=2, s=2).s == 2


# --------------------------------------------------------- learnable path


def learnable_spec(k, s, d, c, strategy="separate", **kw):
    return LayerSpec("learnable", d=d, c=c, k=k, s=s, strategy=strategy, **kw)


def test_learnable_all_ones_shared_duplicates_standard_maps():
    spec = learnable_spec(3, 2, 3, 2, strategy="shared")
    bank = random_bank(spec, seed=0)
    masks = from_dense(np.ones((18, 2)), "learned-shared", 3, 2, 2)
    x = np.random.default_rng(3).normal(size=(5, 5, 2))
    y = bank_forward(x, bank, masks, spec)
    assert y.shape == (3, 3, 6)
    for i in range(3):
        ref = conv_reference(x, bank.filters[i])
        assert np.array_equal(y[:, :, 2 * i], ref)
        assert np.array_equal(y[:, :, 2 * i + 1], ref)


def test_learnable_separate_with_pyramid_masks_equals_spatial():
    rng = np.random.default_rng(9)
    d, c, k = 5, 2, 3
    s = 3
    spec = learnable_spec(k, s, d, c, strategy="separate")
    bank = random_bank(spec, seed=4)
    bank.biases = rng.normal(size=spec.n_secondary)
    pyramid = spatial_masks(d, c).dense()
    masks = from_dense(np.tile(pyramid, (1, k)), "learned-separate", d, c, s, k=k)
    x = rng.normal(size=(7, 7, c))
    y = bank_forward(x, bank, masks, spec)
    pyramid_spec = LayerSpec("spatial", d=d, c=c, k=1)
    for i in range(k):
        primary = FilterBank(bank.filters[i : i + 1], bank.biases[i * s : (i + 1) * s])
        yi = bank_forward(x, primary, pyramid_spec.structural_masks(), pyramid_spec)
        assert np.array_equal(y[:, :, i * s : (i + 1) * s], yi)


def test_learnable_k1_s1_all_ones_is_standard():
    spec = learnable_spec(1, 1, 3, 4, strategy="shared")
    bank = random_bank(spec, seed=1)
    masks = from_dense(np.ones((36, 1)), "learned-shared", 3, 4, 1)
    x = np.random.default_rng(11).normal(size=(6, 6, 4))
    y = bank_forward(x, bank, masks, spec)
    assert np.array_equal(y[:, :, 0], conv_reference(x, bank.filters[0]))


def test_learnable_output_is_primary_major():
    spec = learnable_spec(2, 2, 1, 1, strategy="separate")
    bank = FilterBank(np.array([1.0, 10.0]).reshape(2, 1, 1, 1), np.zeros(4))
    masks = from_dense(np.array([[1, 0, 1, 1]], dtype=float), "learned-separate", 1, 1, 2, k=2)
    y = bank_forward(np.ones((1, 1, 1)), bank, masks, spec)
    assert np.array_equal(y[0, 0], [1.0, 0.0, 10.0, 10.0])


def test_learnable_mask_column_count_mismatch():
    # a separate spec reads its own k groups of s, never one shared group
    spec = learnable_spec(2, 2, 3, 1, strategy="separate")
    bank = random_bank(spec, seed=0)
    shared = from_dense(np.ones((9, 2)), "learned-shared", 3, 1, 2)
    lone = from_dense(np.ones((9, 3)), "learned-shared", 3, 1, 3)
    for wrong in (shared, lone):
        with pytest.raises(ShapeError):
            bank_forward(np.ones((4, 4, 1)), bank, wrong, spec)


def test_masked_filter_consistency_exhaustive():
    # every output channel equals conv_reference on the explicitly masked filter
    rng = np.random.default_rng(21)
    for strategy in ("shared", "separate"):
        spec = learnable_spec(2, 3, 3, 2, strategy=strategy)
        bank = random_bank(spec, seed=7)
        bank.biases = rng.normal(size=spec.n_secondary)
        n_cols = spec.s if strategy == "shared" else spec.k * spec.s
        kind = "learned-shared" if strategy == "shared" else "learned-separate"
        dense = rng.integers(0, 2, size=(18, n_cols)).astype(float)
        masks = from_dense(dense, kind, 3, 2, spec.s, k=1 if strategy == "shared" else spec.k)
        # (3, 3, 2) has one output position, so its products are one column
        for x in (rng.normal(size=(6, 5, 2)), rng.normal(size=(3, 3, 2))):
            y = bank_forward(x, bank, masks, spec)
            for i in range(spec.k):
                for j in range(spec.s):
                    col = j if strategy == "shared" else i * spec.s + j
                    fhat = (bank.filters[i].reshape(-1) * dense[:, col]).reshape(3, 3, 2)
                    ref = conv_reference(x, fhat, bias=bank.biases[i * spec.s + j])
                    assert np.array_equal(y[:, :, i * spec.s + j], ref)


@pytest.mark.parametrize(
    "spec",
    [
        LayerSpec("standard", d=3, c=2, k=4),
        LayerSpec("spatial", d=5, c=2, k=2, stride=2, padding=1),
        LayerSpec("channel", d=3, c=4, k=3, c_hat=2, g=2),
        learnable_spec(2, 3, 3, 2),
    ],
)
def test_output_shape_law(spec):
    bank = random_bank(spec, seed=3)
    masks = spec.structural_masks()
    if spec.variant == "learnable":
        masks = random_masks(spec.k, spec.s, spec.d, spec.c, seed=0)
    y = bank_forward(np.zeros((9, 8, spec.c)), bank, masks, spec)
    assert y.shape == spec.output_shape(9, 8)


# -------------------------------------------------------------- backward


def test_backward_zero_grad_gives_zero_grads():
    spec = learnable_spec(2, 2, 3, 2)
    bank = random_bank(spec, seed=0)
    masks = random_masks(2, 2, 3, 2, seed=1)
    x = np.random.default_rng(2).normal(size=(5, 5, 2))
    g = bank_backward(np.zeros((3, 3, 4)), x, bank, masks, spec)
    assert np.all(g.filters == 0)
    assert np.all(g.biases == 0)
    assert np.all(g.masks == 0)
    assert np.all(g.x == 0)


def test_backward_all_ones_shared_filter_grad_is_plain_sum():
    spec = learnable_spec(2, 3, 3, 2, strategy="shared")
    bank = random_bank(spec, seed=5)
    masks = from_dense(np.ones((18, 3)), "learned-shared", 3, 2, 3)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(5, 5, 2))
    grad_y = rng.normal(size=(3, 3, 6))
    g = bank_backward(grad_y, x, bank, masks, spec)
    ghat = secondary_grads(grad_y, x, bank, masks, spec)
    for i in range(2):
        summed = np.add.reduce(ghat[:, 3 * i : 3 * i + 3], axis=1)
        assert np.array_equal(g.filters[i].reshape(-1), summed)


def fd_case(spec, masks, seed):
    rng = np.random.default_rng(seed)
    bank = random_bank(spec, seed=seed + 1)
    if spec.has_biases:
        bank.biases = rng.normal(size=spec.n_secondary)
    x = rng.normal(size=(4, 4, spec.c))
    h_out, w_out, n = spec.output_shape(4, 4)
    targets = rng.normal(size=(h_out, w_out, n))
    mask_cols = (
        masks.dense() if masks is not None else np.ones((spec.d**2 * spec.c, spec.s))
    )
    y = bank_forward(x, bank, masks, spec)
    grads = bank_backward(y - targets, x, bank, masks, spec)
    return bank, x, targets, mask_cols, grads


@pytest.mark.parametrize("strategy", ["shared", "separate"])
def test_backward_matches_finite_differences_learnable(strategy):
    for seed in range(3):
        spec = learnable_spec(2, 2, 3, 2, strategy=strategy)
        k_groups = 1 if strategy == "shared" else spec.k
        n_cols = spec.s * k_groups
        kind = "learned-shared" if strategy == "shared" else "learned-separate"
        rng = np.random.default_rng(100 + seed)
        masks = from_dense(
            rng.integers(0, 2, size=(18, n_cols)).astype(float), kind, 3, 2, spec.s, k=k_groups
        )
        bank, x, targets, mask_cols, grads = fd_case(spec, masks, seed)

        def loss_wrt_filters(filters):
            return relaxed_loss(x, filters, mask_cols, spec, bank.biases, targets)

        fd_f = finite_difference(loss_wrt_filters, bank.filters.copy())
        assert relative_error(grads.filters, fd_f) < 1e-4

        def loss_wrt_masks(cols):
            return relaxed_loss(x, bank.filters, cols, spec, bank.biases, targets)

        fd_m = finite_difference(loss_wrt_masks, mask_cols.copy())
        assert relative_error(grads.masks, fd_m) < 1e-4

        def loss_wrt_x(xx):
            return relaxed_loss(xx, bank.filters, mask_cols, spec, bank.biases, targets)

        fd_x = finite_difference(loss_wrt_x, x.copy())
        assert relative_error(grads.x, fd_x) < 1e-4


def test_backward_spatial_scaling_is_fd_over_s():
    # the spatial variant deliberately reports grad/s for filters and input
    spec = LayerSpec("spatial", d=3, c=1, k=1)
    masks = spec.structural_masks()
    bank, x, targets, mask_cols, grads = fd_case(spec, masks, seed=9)

    def loss_wrt_filters(filters):
        return relaxed_loss(x, filters, mask_cols, spec, bank.biases, targets)

    fd_f = finite_difference(loss_wrt_filters, bank.filters.copy())
    assert relative_error(grads.filters, fd_f / spec.s) < 1e-4

    def loss_wrt_x(xx):
        return relaxed_loss(xx, bank.filters, mask_cols, spec, bank.biases, targets)

    fd_x = finite_difference(loss_wrt_x, x.copy())
    assert relative_error(grads.x, fd_x / spec.s) < 1e-4

    # bias gradients are not scaled
    fd_b = finite_difference(
        lambda bb: relaxed_loss(x, bank.filters, mask_cols, spec, bb, targets),
        bank.biases.copy(),
    )
    assert relative_error(grads.biases, fd_b) < 1e-4


def test_backward_standard_matches_fd():
    spec = LayerSpec("standard", d=3, c=2, k=2)
    bank, x, targets, mask_cols, grads = fd_case(spec, None, seed=30)

    def loss_wrt_filters(filters):
        return relaxed_loss(x, filters, mask_cols, spec, bank.biases, targets)

    fd_f = finite_difference(loss_wrt_filters, bank.filters.copy())
    assert relative_error(grads.filters, fd_f) < 1e-4


def test_backward_channel_matches_fd():
    spec = channel_spec(4, 2, 2, d=3, k=2)
    masks = spec.structural_masks()
    bank, x, targets, mask_cols, grads = fd_case(spec, masks, seed=31)
    assert grads.biases is None and grads.masks is None

    def loss_wrt_filters(filters):
        return relaxed_loss(x, filters, mask_cols, spec, None, targets)

    fd_f = finite_difference(loss_wrt_filters, bank.filters.copy())
    assert relative_error(grads.filters, fd_f) < 1e-4


def test_backward_shape_mismatch():
    spec = LayerSpec("standard", d=3, c=1, k=1)
    bank = random_bank(spec, seed=0)
    with pytest.raises(ShapeError):
        bank_backward(np.zeros((2, 2, 1)), np.ones((5, 5, 1)), bank, None, spec)


PEAK_SPECS = {
    "separate_d5_c64": LayerSpec("learnable", d=5, c=64, k=2, s=2, strategy="separate"),
    "spatial_d5_c16": LayerSpec("spatial", d=5, c=16, k=8),
    "standard_d3_c16": LayerSpec("standard", d=3, c=16, k=32),
}


def backward_case(spec, dtype, seed=0):
    rng = np.random.default_rng(seed)
    bank = random_bank(spec, seed=seed + 1, dtype=dtype)
    x = rng.normal(size=(32, 32, spec.c)).astype(dtype)
    grad_y = rng.normal(size=spec.output_shape(32, 32)).astype(dtype)
    return bank, masks_for_spec(spec, seed + 2), x, grad_y


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", PEAK_SPECS)
def test_backward_input_grad_reuses_the_patch_buffer(name, dtype, traced_peak):
    # the patch matrix, then the input-gradient columns in its buffer: no
    # second patch-sized array (2.1x to 2.55x when the columns had their own)
    spec = PEAK_SPECS[name]
    bank, masks, x, grad_y = backward_case(spec, dtype)
    _, peak = traced_peak(lambda: bank_backward(grad_y, x, bank, masks, spec))
    assert peak <= 1.6 * im2col(x, spec.d).cols.nbytes


@pytest.mark.parametrize("name", PEAK_SPECS)
def test_backward_keeps_patches_it_cannot_reuse(name):
    # read-only columns, or columns of another dtype than the input-gradient
    # columns, are left as they are; the gradients are those from x
    spec = PEAK_SPECS[name]
    bank, masks, x, grad_y = backward_case(spec, np.float32)
    read_only = im2col(x, spec.d)
    read_only.cols.flags.writeable = False
    # float64 dL/dy makes float64 input-gradient columns
    for dy, pm in ((grad_y, read_only), (grad_y.astype(np.float64), im2col(x, spec.d))):
        before = pm.cols.copy()
        got = bank_backward(dy, None, bank, masks, spec, pm)
        want = bank_backward(dy, x, bank, masks, spec)
        assert np.array_equal(pm.cols, before)
        for field in ("filters", "biases", "masks", "x"):
            a, b = getattr(got, field), getattr(want, field)
            assert (a is None and b is None) or a.tobytes() == b.tobytes()


def test_secondary_matrix_spatial_structure():
    # each secondary's kept rows: the full square, then the center, per primary
    selector = mask_layout(LayerSpec("spatial", d=3, c=1, k=2)).selector
    assert selector.shape == (4, 9) and selector.flags.c_contiguous
    center_only = np.zeros(9, dtype=bool)
    center_only[4] = True
    assert np.array_equal(selector, [[True] * 9, center_only] * 2)
