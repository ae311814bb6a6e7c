import io
import struct
from pathlib import Path

import numpy as np
import pytest

import maskconv
from maskconv.masks import (
    MaskError,
    MaskSet,
    agent_update,
    channel_windows,
    from_dense,
    ortho_grad,
    from_words,
    gram_offdiagonal,
    ortho_loss,
    random_masks,
    read_mask_records,
    spatial_masks,
    to_words,
    write_mask_records,
)

from maskconv.fastinfer import masks_for_spec
from maskconv.layers import LayerSpec
from maskconv.network import MaskedConv

from oracles import agent_update_clip, finite_difference, ortho_per_block, relative_error


# ---------------------------------------------------------------- spatial


def test_spatial_5x5_pyramid_ones_counts():
    ms = spatial_masks(5, 1)
    assert ms.s == 3
    assert list(ms.ones_counts()) == [25, 9, 1]


def test_spatial_degenerate_1x1():
    ms = spatial_masks(1, 7)
    assert ms.s == 1
    assert list(ms.ones_counts()) == [7]
    assert np.all(ms.dense() == 1)


def test_spatial_d11_has_six_scales():
    assert spatial_masks(11, 1).s == 6


@pytest.mark.parametrize("d,c", [(3, 1), (4, 2), (5, 3), (7, 1), (8, 4)])
def test_spatial_counts_formula_and_nesting(d, c):
    ms = spatial_masks(d, c)
    assert ms.s == (d + 1) // 2
    dense = ms.dense()
    for i in range(1, ms.s + 1):
        assert ms.ones_counts()[i - 1] == (d + 2 - 2 * i) ** 2 * c
    # nesting: the ones of mask i+1 are a subset of the ones of mask i
    for i in range(ms.s - 1):
        assert np.all(dense[:, i + 1] <= dense[:, i])
    # first mask is all ones
    assert np.all(dense[:, 0] == 1)


def test_spatial_even_d_innermost_is_2x2():
    ms = spatial_masks(4, 3)
    assert ms.ones_counts()[-1] == 4 * 3


def test_spatial_mask_geometry_is_centered_square():
    ms = spatial_masks(5, 2)
    m2 = ms.dense()[:, 1].reshape(5, 5, 2)
    # second scale keeps rows/cols 1..3 (0-based) at every channel
    want = np.zeros((5, 5, 2))
    want[1:4, 1:4, :] = 1
    assert np.array_equal(m2, want)


def test_spatial_rejects_nonpositive():
    with pytest.raises(MaskError):
        spatial_masks(0, 1)


def test_pyramid_sum_weight_map():
    # elementwise sum of the d=3 masks: center 2, ring 1
    ms = spatial_masks(3, 1)
    total = ms.dense().sum(axis=1).reshape(3, 3)
    want = np.ones((3, 3))
    want[1, 1] = 2
    assert np.array_equal(total, want)


# ------------------------------------------------------- channel windows


def test_channel_windows_halving_case():
    ms = channel_windows(3, 16, 8, 8)
    assert ms.s == 2
    dense = ms.dense().reshape(-1, 16, 2)  # (d*d, c, n)
    assert np.all(dense[:, :8, 0] == 1) and np.all(dense[:, 8:, 0] == 0)
    assert np.all(dense[:, 8:, 1] == 1) and np.all(dense[:, :8, 1] == 0)


def test_channel_windows_full_width_is_single_mask():
    ms = channel_windows(3, 6, 6, 4)
    assert ms.s == 1
    assert np.all(ms.dense() == 1)


def test_channel_windows_three_offsets():
    ms = channel_windows(1, 16, 8, 4)
    assert ms.s == 3
    for i, offset in enumerate([0, 4, 8]):
        chans = ms.dense()[:, i]
        want = np.zeros(16)
        want[offset : offset + 8] = 1
        assert np.array_equal(chans, want)


def test_channel_windows_errors():
    with pytest.raises(MaskError):
        channel_windows(3, 16, 20, 4)  # c_hat > c
    with pytest.raises(MaskError):
        channel_windows(3, 16, 8, 3)  # (c - c_hat) not divisible by g
    with pytest.raises(MaskError):
        channel_windows(3, 16, 8, 0)  # bad stride


# ------------------------------------------------------------- learnable


def learnable_layer(strategy, seed=0, k=4, s=3):
    return MaskedConv.init(LayerSpec("learnable", d=3, c=2, k=k, s=s, strategy=strategy), seed)


def test_random_fixed_masks_keep_their_draw():
    layer = learnable_layer("random-fixed", seed=99)
    assert not layer.trainable_masks
    assert np.array_equal(layer.masks.bits, random_masks(4, 3, 3, 2, seed=99).bits)
    drawn = masks_for_spec(layer.spec, 99)
    assert layer.masks.kind == drawn.kind and np.array_equal(layer.masks.bits, drawn.bits)
    assert not np.array_equal(layer.masks.bits, learnable_layer("random-fixed", seed=100).masks.bits)


def test_learned_masks_column_counts():
    shared = learnable_layer("shared").masks
    assert shared.n_masks == 3 and shared.kind == "learned-shared"
    separate = learnable_layer("separate").masks
    assert separate.n_masks == 12 and separate.kind == "learned-separate"


def test_learned_masks_start_all_ones():
    for strategy in ("shared", "separate"):
        layer = learnable_layer(strategy, seed=5, k=2, s=2)
        assert layer.trainable_masks
        assert np.all(layer.masks.dense() == 1)
        # no draw decides the bits: every seed starts from the same masks
        other = learnable_layer(strategy, seed=6, k=2, s=2)
        assert np.array_equal(layer.masks.bits, other.masks.bits)


def test_agent_update_thresholds_at_zero():
    # from all-zero bits the next bits are -lr*grad > 0: exactly zero and NaN give 0
    zeros = from_dense(np.zeros((4, 1)), "learned-shared", 1, 4, 1)
    ms = agent_update(zeros, np.array([[0.3], [0.0], [-0.7], [np.nan]]), lr=1.0)
    assert np.array_equal(ms.dense()[:, 0], [0, 0, 1, 0])
    assert np.all(agent_update(zeros, np.ones((4, 1)), lr=1.0).dense() == 0)
    assert np.all(agent_update(zeros, -np.ones((4, 1)), lr=1.0).dense() == 1)


def test_random_masks_shape_and_density():
    ms = random_masks(4, 2, 3, 8, seed=1)
    assert ms.kind == "random-fixed" and ms.k == 4
    assert ms.n_masks == 8
    density = ms.dense().mean()
    assert 0.4 < density < 0.6
    assert np.array_equal(ms.bits, random_masks(4, 2, 3, 8, seed=1).bits)


# ----------------------------------------------------------- regularizer


def test_ortho_loss_single_all_ones_mask_is_zero():
    ms = from_dense(np.ones((18, 1)), "learned-shared", 3, 2, 1)
    assert ortho_loss(ms) == pytest.approx(0.0, abs=1e-15)


def test_ortho_loss_complementary_halves():
    v = 16
    m = np.zeros((v, 2))
    m[: v // 2, 0] = 1
    m[v // 2 :, 1] = 1
    assert ortho_loss(m) == pytest.approx(0.25, abs=1e-12)


def test_ortho_loss_two_all_ones_masks():
    assert ortho_loss(np.ones((18, 2))) == pytest.approx(1.0, abs=1e-12)


def test_ortho_loss_separate_sums_per_primary_blocks():
    # two primaries, each block two all-ones masks: 1.0 per block
    ms = from_dense(np.ones((18, 4)), "learned-separate", 3, 2, 2, k=2)
    assert ortho_loss(ms) == pytest.approx(2.0, abs=1e-12)
    # as a single shared matrix the cross terms count too
    assert ortho_loss(np.ones((18, 4))) == pytest.approx(6.0, abs=1e-12)


def test_ortho_grad_zero_at_scaled_orthonormal_columns():
    v = 16
    m = np.zeros((v, 2))
    m[: v // 2, 0] = np.sqrt(2.0)  # column norm^2 = v
    m[v // 2 :, 1] = np.sqrt(2.0)
    np.testing.assert_allclose(ortho_grad(m), 0.0, atol=1e-12)


def test_ortho_grad_zero_matrix():
    assert np.all(ortho_grad(np.zeros((12, 3))) == 0)


def test_ortho_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(5):
        m = rng.integers(0, 2, size=(12, 3)).astype(np.float64)
        analytic = ortho_grad(m)
        numeric = finite_difference(lambda mm: ortho_loss(mm), m.copy(), step=1e-5)
        assert relative_error(analytic, numeric) < 1e-4


def test_ortho_grad_matches_fd_on_separate_blocks():
    rng = np.random.default_rng(4)
    dense = rng.integers(0, 2, size=(12, 4)).astype(np.float64)
    ms = from_dense(dense, "learned-separate", 2, 3, 2, k=2)
    analytic = ortho_grad(ms)

    def blockwise(mm):
        return ortho_loss(mm[:, :2]) + ortho_loss(mm[:, 2:])

    numeric = finite_difference(blockwise, dense.copy(), step=1e-5)
    assert relative_error(analytic, numeric) < 1e-4


# ---------------------------------------------------------- agent update


def random_learned(kind, s, k=1, d=3, c=1, seed=0):
    bits = np.random.default_rng(seed).integers(0, 2, size=(d * d * c, s * k))
    return from_dense(bits, kind, d, c, s, k)


def test_agent_update_zero_grad_resets_to_mask():
    ms = random_learned("learned-shared", s=2)
    assert np.array_equal(agent_update(ms, np.zeros((9, 2)), lr=0.1).bits, ms.bits)


def test_agent_update_large_grad_flips_on_bit():
    ms = from_dense(np.ones((9, 1)), "learned-shared", 3, 1, 1)
    grad = np.zeros((9, 1))
    grad[0, 0] = 20.0  # lr * grad = 2 -> 1 - 2 < 0
    flipped = agent_update(ms, grad, lr=0.1)
    assert np.array_equal(flipped.dense()[:, 0], [0] + [1] * 8)
    assert flipped.flip_count(ms) == 1


def test_agent_update_negative_grad_flips_off_bit():
    ms = from_dense(np.zeros((9, 1)), "learned-shared", 3, 1, 1)
    grad = np.full((9, 1), -0.5)
    assert np.all(agent_update(ms, grad, lr=0.1).dense() == 1)


def test_agent_update_clips_to_unit_interval():
    """The bits are those of the latent ``clip(M - lr*g, 0, 1)``, thresholded at 0,
    at the edges too: exact zeros, subnormals, exactly ``1/lr``, infinities and NaN."""
    rng = np.random.default_rng(4)
    tiny = np.finfo(np.float64).smallest_subnormal
    for lr in (0.1, 0.5, 2.0, 0.15):
        ms = random_learned("learned-separate", s=3, k=4, d=3, c=2, seed=int(10 * lr))
        edges = np.array([0.0, -0.0, tiny, -tiny, 1 / lr, -1 / lr, np.inf, -np.inf, np.nan])
        grad = np.where(
            rng.random(ms.dense().shape) < 0.5,
            rng.choice(edges, size=ms.dense().shape),
            rng.normal(scale=2 / lr, size=ms.dense().shape),
        )
        got = agent_update(ms, grad, lr)
        assert got.bits.tobytes() == agent_update_clip(ms, grad, lr).bits.tobytes()
        assert (got.kind, got.d, got.c, got.s, got.k) == (ms.kind, ms.d, ms.c, ms.s, ms.k)


def test_agent_update_then_binarize_idempotent_without_grad():
    ms = random_learned("learned-separate", s=2, k=2, d=3, c=2, seed=7)
    new = agent_update(ms, np.zeros((18, 4)), lr=0.5)
    again = agent_update(new, np.zeros((18, 4)), lr=0.5)
    assert np.array_equal(new.bits, ms.bits) and np.array_equal(again.bits, ms.bits)


def test_agent_update_holds_no_real_valued_copy_of_the_bits(traced_peak):
    """A step compares ``lr * grad`` with the bits themselves: its peak is
    the step's one float array and a few bytes a bit, not a float64 ``M``
    and ``M - lr * grad`` beside it."""
    masks = random_masks(1, 1024, 1, 1024, 0)
    grad = np.zeros(masks.bits.shape)
    got, peak = traced_peak(lambda: agent_update(masks, grad, lr=0.1))
    assert np.array_equal(got.bits, masks.bits)
    assert peak <= 12.6e6  # half of the 25.2 MB that a float64 M and its difference took


def test_agent_update_rejects_a_grad_of_another_shape():
    with pytest.raises(MaskError, match="grad shape"):
        agent_update(random_learned("learned-shared", s=2), np.zeros((9, 3)), lr=0.1)


# ------------------------------------------------------------ bit packing


@pytest.mark.parametrize("nbits", [1, 31, 32, 33, 64, 100])
def test_pack_unpack_roundtrip(nbits):
    rng = np.random.default_rng(nbits)
    bits = rng.integers(0, 2, size=(nbits, 3)).astype(bool)
    words = to_words(bits)
    assert words.shape == (3, (nbits + 31) // 32) and words.dtype == np.dtype("<u4")
    assert np.array_equal(from_words(words, nbits), bits)


def test_pack_bit_position_convention():
    # vec index 32*w + b must land in bit b of word w
    bits = np.zeros((70, 1), dtype=bool)
    bits[[0, 33, 69]] = True
    words = to_words(bits)[0]
    assert words[0] == 1
    assert words[1] == 1 << 1
    assert words[2] == 1 << 5


def test_maskset_roundtrip_through_dense():
    ms = random_masks(3, 2, 3, 4, seed=11)
    rebuilt = from_dense(ms.dense(), ms.kind, ms.d, ms.c, ms.s, ms.k)
    assert np.array_equal(rebuilt.bits, ms.bits)


def test_mask_export_roundtrip():
    ms = random_masks(2, 3, 3, 2, seed=5)
    buf = io.BytesIO()
    write_mask_records(ms, buf)
    buf.seek(0)
    records = read_mask_records(buf)
    assert len(records) == ms.n_masks
    dense = ms.dense()
    for idx, (d, c, bits) in enumerate(records):
        assert (d, c) == (3, 2)
        assert np.array_equal(bits, dense[:, idx])


def test_mask_export_truncation_detected():
    ms = spatial_masks(3, 1)
    buf = io.BytesIO()
    write_mask_records(ms, buf)
    data = buf.getvalue()[:-2]
    with pytest.raises(MaskError):
        read_mask_records(io.BytesIO(data))


def test_mask_records_truncated_at_every_offset():
    buf = io.BytesIO()
    write_mask_records(random_masks(1, 3, 3, 8, seed=2), buf)
    data = buf.getvalue()
    whole = read_mask_records(io.BytesIO(data))
    size = len(data) // len(whole)  # 8 header bytes and three words
    for cut in range(len(data)):
        if cut % size:
            with pytest.raises(MaskError, match=r"truncated mask record .* at offset"):
                read_mask_records(io.BytesIO(data[:cut]))
        else:  # the records carry no count: a cut between them reads those before it
            records = read_mask_records(io.BytesIO(data[:cut]))
            assert len(records) == cut // size
            assert all(np.array_equal(a[2], b[2]) for a, b in zip(records, whole))


@pytest.mark.parametrize("size", [65535, 2**32 - 1])
@pytest.mark.parametrize("through", ["bytesio", "file"])
def test_mask_record_huge_header_rejected_without_allocating(tmp_path, size, through, traced_peak):
    data = struct.pack("<2I", size, size)  # an 8-byte record: header only
    path = tmp_path / "huge.masks"
    path.write_bytes(data)

    def rejected():
        with pytest.raises(MaskError, match="truncated mask record payload"):
            if through == "file":
                with open(path, "rb") as f:
                    read_mask_records(f)
            else:
                read_mask_records(io.BytesIO(data))

    _, peak = traced_peak(rejected)
    assert peak < 1_000_000


@pytest.mark.parametrize("d, c", [(0, 3), (3, 0)])
def test_mask_record_zero_size_rejected(d, c):
    with pytest.raises(MaskError, match="both must be positive"):
        read_mask_records(io.BytesIO(struct.pack("<2I", d, c) + bytes(4)))


@pytest.mark.parametrize("bit", [9, 31])
def test_mask_record_padding_bit_rejected(bit):
    # d=3 c=1: nine bits in one word; a set bit past them could not be written back
    with pytest.raises(MaskError, match="padding bits past bit 9"):
        read_mask_records(io.BytesIO(struct.pack("<3I", 3, 1, 1 << bit)))


def test_packing_occurs_only_in_masks():
    # bits are packed into words only at the file boundary, through masks.to_words/from_words
    package = Path(maskconv.__file__).parent
    sources = {p.name: p.read_text() for p in package.glob("*.py")}
    assert sorted(name for name, text in sources.items() if "packbits" in text) == ["masks.py"]
    assert not [name for name, text in sources.items() if ".words" in text]


@pytest.mark.parametrize(
    "build",
    [lambda: channel_windows(1, 4096, 1, 1), lambda: spatial_masks(9, 2048), lambda: random_masks(1, 1024, 1, 1024, 0)],
    ids=["channel", "spatial", "random"],
)
def test_structural_builders_hold_one_copy_of_their_bits(build, traced_peak):
    masks, peak = traced_peak(build)
    assert not masks.bits.flags.writeable and masks.bits.flags.f_contiguous
    assert peak <= 1.1 * masks.bits.nbytes


def test_maskset_wrong_mask_count_rejected():
    with pytest.raises(MaskError):
        MaskSet("learned-separate", np.ones((9, 3)), 3, 1, 2, k=2)


def test_batched_gram_gives_the_bits_of_a_product_per_block():
    """One batched Gram equals a walk over the per-primary blocks by bits:
    on 0/1 masks every Gram entry is an exact integer, and each block's
    loss and off-diagonal terms sum in the order ``np.sum`` sums them."""
    rng = np.random.default_rng(31)
    for v, groups, s in ((25, 4, 2), (72, 8, 2), (18, 3, 9), (9, 1, 4), (5, 2, 1)):
        for density in (1.0, 0.5, 0.1):
            bits = rng.random((v, groups * s)) < density
            masks = from_dense(bits, "learned-separate" if groups > 1 else "learned-shared", 1, v, s, groups)
            loss, grad, off = ortho_per_block(masks)
            assert ortho_loss(masks) == loss
            assert ortho_grad(masks).tobytes() == grad.tobytes()
            assert gram_offdiagonal(masks) == off
