import ast
from pathlib import Path

import numpy as np
import pytest

import maskconv
from maskconv import convref
from maskconv.convref import (
    ShapeError,
    col2im,
    conv_output_size,
    conv_reference,
    im2col,
    matmul_conv,
    vec,
)

from oracles import conv_brute, conv_reference_one_pass, patches_brute


def test_im2col_single_patch_of_ones():
    x = np.ones((3, 3, 1))
    pm = im2col(x, d=3)
    assert pm.cols.shape == (9, 1)
    assert np.array_equal(pm.cols, np.ones((9, 1)))


def test_im2col_4x4_enumerated_by_hand():
    # 4x4 input, 3x3 kernel, stride 1, no padding -> 2x2 = 4 patches.
    x = np.arange(16, dtype=np.float64).reshape(4, 4, 1)
    pm = im2col(x, d=3)
    assert pm.cols.shape == (9, 4)
    # patch at output (0, 0) covers rows 0..2, cols 0..2
    assert np.array_equal(pm.cols[:, 0], [0, 1, 2, 4, 5, 6, 8, 9, 10])
    # patch at output (0, 1) covers rows 0..2, cols 1..3
    assert np.array_equal(pm.cols[:, 1], [1, 2, 3, 5, 6, 7, 9, 10, 11])
    assert np.array_equal(pm.cols[:, 2], [4, 5, 6, 8, 9, 10, 12, 13, 14])
    assert np.array_equal(pm.cols[:, 3], [5, 6, 7, 9, 10, 11, 13, 14, 15])


def test_im2col_1x1_kernel_is_pixel_identity():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None]
    pm = im2col(x, d=1)
    assert np.array_equal(pm.cols, [[1.0, 2.0, 3.0, 4.0]])


def test_im2col_matches_brute_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(20):
        h = int(rng.integers(3, 9))
        w = int(rng.integers(3, 9))
        c = int(rng.integers(1, 4))
        d = int(rng.integers(1, min(h, w) + 1))
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 3))
        x = rng.normal(size=(h, w, c))
        pm = im2col(x, d, stride, padding)
        assert np.array_equal(pm.cols, patches_brute(x, d, stride, padding))


def test_im2col_kernel_too_large():
    with pytest.raises(ShapeError):
        im2col(np.ones((3, 3, 1)), d=5)
    # becomes valid once padding covers it
    assert im2col(np.ones((3, 3, 1)), d=5, padding=1).cols.shape == (25, 1)


def test_im2col_vec_order_is_channel_innermost():
    # one pixel per (row, col, ch): vec index must be (p*d + q)*c + ch
    x = np.arange(2 * 2 * 3, dtype=np.float64).reshape(2, 2, 3)
    pm = im2col(x, d=2)
    assert np.array_equal(pm.cols[:, 0], np.arange(12))
    assert np.array_equal(vec(x), np.arange(12))


def test_conv_zero_filter_gives_bias():
    x = np.random.default_rng(0).normal(size=(5, 5, 2))
    y = conv_reference(x, np.zeros((3, 3, 2)), bias=1.5)
    assert np.array_equal(y, np.full((3, 3), 1.5))


def test_conv_all_ones_3x3():
    y = conv_reference(np.ones((3, 3, 1)), np.ones((3, 3, 1)))
    assert y.shape == (1, 1)
    assert y[0, 0] == 9.0


def test_conv_equals_matmul_exactly():
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.normal(size=(6, 7, 3))
        f = rng.normal(size=(3, 3, 3))
        pm = im2col(x, 3, stride=2, padding=1)
        via_matmul = matmul_conv(pm, vec(f)[:, None]).reshape(pm.h_out, pm.w_out)
        direct = conv_reference(x, f, stride=2, padding=1)
        assert np.array_equal(via_matmul, direct)


def test_conv_matches_brute_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        h = int(rng.integers(4, 9))
        c = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 2))
        x = rng.normal(size=(h, h, c))
        f = rng.normal(size=(d, d, c))
        got = conv_reference(x, f, stride, padding, bias=0.25)
        want = conv_brute(x, f, stride, padding, bias=0.25)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_reference_blocks_match_one_pass_oracle(dtype):
    # a 3x3x2 filter over a 3-row strip: one output column per position, so
    # the column counts fall at, beside and across the block edges
    d, c = 3, 2
    step = convref.REFERENCE_BLOCK_BYTES // (d * d * c * np.dtype(dtype).itemsize)
    rng = np.random.default_rng(4)
    for width in (1, step - 1, step, step + 1, 2 * step, 2 * step + 1):
        x = rng.normal(size=(d, width + d - 1, c)).astype(dtype)
        f = rng.normal(size=(d, d, c)).astype(dtype)
        x[:, : d + 1] = -0.0  # the first two columns' products are all signed zeros
        x[1, ::3, 0] = -0.0
        f[0, 0] = -0.0
        for bias in (0.0, np.float64(-0.75)):
            got = conv_reference(x, f, bias=bias)
            want = conv_reference_one_pass(x, f, bias=bias)
            assert got.dtype == want.dtype and got.shape == want.shape == (1, width)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_reference_holds_one_patch_matrix(dtype, traced_peak):
    # the patch matrix and one block of products, not a second (v, l) array
    rng = np.random.default_rng(5)
    for c in (32, 64):
        x = rng.normal(size=(32, 32, c)).astype(dtype)
        f = rng.normal(size=(5, 5, c)).astype(dtype)
        _, peak = traced_peak(lambda: conv_reference(x, f))
        assert peak <= 1.25 * im2col(x, 5).cols.nbytes


def test_conv_channel_mismatch():
    with pytest.raises(ShapeError):
        conv_reference(np.ones((4, 4, 2)), np.ones((3, 3, 3)))


def test_matmul_selector_filter_picks_row():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(5, 5, 2))
    pm = im2col(x, 3)
    for j in (0, 7, 17):
        e = np.zeros((18, 1))
        e[j] = 1.0
        assert np.array_equal(matmul_conv(pm, e)[:, 0], pm.cols[j])


def test_matmul_hand_example():
    # a 1 x 2 image of 3 channels, 1 x 1 kernel: columns [1, 1, 1] and [2, 2, 2]
    pm = im2col(np.array([[[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]]), 1)
    y = matmul_conv(pm, np.ones((3, 1)))
    assert np.array_equal(y, [[3.0], [6.0]])


def test_matmul_dimension_mismatch():
    with pytest.raises(ShapeError):
        matmul_conv(im2col(np.ones((1, 2, 4)), 1), np.ones((5, 1)))


def test_conv_linearity():
    rng = np.random.default_rng(21)
    for _ in range(10):
        x = rng.normal(size=(6, 6, 2))
        f1 = rng.normal(size=(3, 3, 2))
        f2 = rng.normal(size=(3, 3, 2))
        a, b = rng.normal(size=2)
        lhs = conv_reference(x, a * f1 + b * f2)
        rhs = a * conv_reference(x, f1) + b * conv_reference(x, f2)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10)


def test_integer_inputs_exact():
    rng = np.random.default_rng(9)
    x = rng.integers(-4, 5, size=(6, 6, 2)).astype(np.float64)
    f = rng.integers(-3, 4, size=(3, 3, 2)).astype(np.float64)
    pm = im2col(x, 3)
    assert np.array_equal(
        matmul_conv(pm, vec(f)[:, None]).reshape(pm.h_out, pm.w_out),
        conv_reference(x, f),
    )


@pytest.mark.parametrize("h", [3, 4, 7, 12])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("padding", [0, 1, 2])
def test_output_shape_law(h, d, stride, padding):
    if h + 2 * padding < d:
        pytest.skip("kernel larger than padded input")
    x = np.zeros((h, h, 1))
    pm = im2col(x, d, stride, padding)
    expected = (h + 2 * padding - d) // stride + 1
    assert pm.h_out == pm.w_out == expected
    assert pm.cols.shape[1] == expected * expected
    assert conv_output_size(h, d, stride, padding) == expected


def test_col2im_adjoint_of_im2col():
    # <im2col(x), G> == <x, col2im(G)> for random G: the defining adjoint
    # property of the scatter-add.
    rng = np.random.default_rng(17)
    for shape, stride, padding in [
        ((6, 5, 3), 1, 0),
        ((6, 5, 3), 2, 1),
        ((6, 5, 3), 1, 2),
        ((2, 6, 5, 3), 2, 1),
    ]:
        x = rng.normal(size=shape)
        pm = im2col(x, 3, stride, padding)
        g = rng.normal(size=pm.cols.shape)
        back = col2im(g, pm)
        assert back.shape == x.shape
        lhs = float(np.sum(pm.cols * g))
        rhs = float(np.sum(x * back))
        assert abs(lhs - rhs) < 1e-10


def test_all_values_finite_on_finite_inputs():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(8, 8, 3)) * 1e6
    f = rng.normal(size=(5, 5, 3)) * 1e6
    y = conv_reference(x, f, stride=2, padding=2)
    assert np.all(np.isfinite(y))


def test_two_operand_einsum_occurs_only_in_contract():
    # convref._contract owns the reduction order of every product; a
    # one-operand sum (the bias gradient's) keeps numpy's own order
    package = Path(maskconv.__file__).parent
    owners = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "einsum":
                enclosing = [f for f in functions if f.lineno <= call.lineno <= f.end_lineno]
                owner = max(enclosing, key=lambda f: f.lineno).name if enclosing else None
                owners.append((path.name, owner, len(call.args)))
    assert {(name, owner) for name, owner, n_args in owners if n_args != 2} == {
        ("convref.py", "_contract")
    }
    assert [(name, owner) for name, owner, n_args in owners if n_args == 2] == [
        ("layers.py", "bank_backward")
    ]
