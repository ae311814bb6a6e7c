import numpy as np
import pytest

from maskconv.convref import ShapeError, conv_reference
from maskconv.layers import (
    FilterBank,
    LayerSpec,
    bank_backward,
    bank_forward,
    naive_sum_forward,
    random_bank,
    secondary_matrix,
)
from maskconv.masks import from_dense, random_masks, spatial_masks

from oracles import conv_brute, finite_difference, relative_error


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
    spec = learnable_spec(2, 2, 3, 1, strategy="separate")
    bank = random_bank(spec, seed=0)
    wrong = from_dense(np.ones((9, 2)), "learned-shared", 3, 1, 2)
    lone = from_dense(np.ones((9, 3)), "learned-shared", 3, 1, 3)
    assert bank_forward(np.ones((4, 4, 1)), bank, wrong, spec) is not None
    with pytest.raises(ShapeError):
        bank_forward(np.ones((4, 4, 1)), bank, lone, spec)


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
    for i in range(2):
        summed = np.add.reduce(g.secondary[:, 3 * i : 3 * i + 3], axis=1)
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


def test_secondary_matrix_spatial_structure():
    spec = LayerSpec("spatial", d=3, c=1, k=2)
    bank = random_bank(spec, seed=2)
    fhat = secondary_matrix(bank, spec.structural_masks(), spec)
    assert fhat.shape == (9, 4)
    assert np.array_equal(fhat[:, 0], bank.filters[0].reshape(-1))
    center_only = np.zeros(9)
    center_only[4] = bank.filters[0].reshape(-1)[4]
    assert np.array_equal(fhat[:, 1], center_only)
