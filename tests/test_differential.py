"""Seeded differential sweep of the conv core over random layer specs.

``matmul_conv`` must reproduce the per-filter loop of ``tests/oracles.py``
byte for byte over random shapes, widths, dtypes and signed zeros.  Every
forward path (``bank_forward``, ``MaskedConv.forward``,
``cached_forward``) must equal the stacked ``conv_reference`` maps bit for
bit, ``MaskedConv.forward`` batch-innermost in memory and the other two
C-contiguous, and the vectorized mask layout must reproduce the
per-secondary loops of ``tests/oracles.py`` bit for bit: the secondary
filters, the filter and mask gradients (from the secondary-filter
gradients of a standard layer, the same contraction), the input gradient
(an in-order sum over the secondary filters, scattered) and the
cached-product ADD tally.  The view of each spatial, channel and shared
bit mask must select exactly its set bits.  Bit masks all set, all
clear, keeping one row and fair-coin must match the same oracles for
every strategy, and their filter and mask gradients an exact-arithmetic
index-order loop.
``bank_backward`` must give the same bytes whatever the memory order of
``dL/dy``, ``MaskedConv.backward`` the input gradient ``bank_backward``
gives, and the sweep's gradients must hash to a pinned digest.
``im2col``, ``col2im`` and ``AvgPool2`` must reproduce the oracles'
``sliding_window_view``, channel-last scatter and ``mean``/``repeat`` formulations byte for byte, alone and through training
(pooling in either memory order), and so must the per-filter loop over
the explicit masked filters through training.  ``MaskedConv`` must give
the same bytes for a batch stored channel-last, map-major or
batch-innermost.  ``Dense``'s weight
gradient must equal its batch-major ``einsum`` by bytes, and a lone
filter or dense unit must give the bytes it gives beside a second one.
A shared, spatial or channel backward on an ``inf`` in the input and in
``dL/dy`` equals the dense masked oracles, a NaN counting as one NaN.
"""

import hashlib
import itertools

import numpy as np
import pytest

from maskconv import convref, layers, network
from maskconv.checkpoint import save_checkpoint
from maskconv.convref import (
    PatchMatrix,
    col2im,
    conv_output_size,
    conv_reference,
    im2col,
    matmul_conv,
)
from maskconv.fastinfer import cached_forward, masks_for_spec
from maskconv.layers import (
    STRATEGIES,
    VARIANTS,
    LayerSpec,
    bank_backward,
    bank_forward,
    mask_layout,
    random_bank,
)
from maskconv.masks import from_dense
from maskconv.network import AvgPool2, Dense, MaskedConv, build_small_cnn
from maskconv.training import TrainConfig, fit

from oracles import (
    avgpool_mean,
    avgpool_repeat_backward,
    bias_and_input_grads_exact,
    bias_grads,
    cached_adds_loop,
    col2im_channel_last,
    core_order,
    dense_grads_exact,
    forward_patches_loop,
    grads_from_secondary_loop,
    im2col_windows,
    input_grad,
    matmul_conv_loop,
    secondary_grads,
    secondary_grads_exact,
    secondary_matrix_loop,
)

N_CASES = 240


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_contiguous_bits(got, want):
    assert got.flags.c_contiguous
    assert_same_bits(got, want)


def stored_as(x, order):
    """A copy of ``x`` whose memory holds its axes in ``order``, slowest first."""
    out = np.empty([x.shape[i] for i in order], dtype=x.dtype).transpose(np.argsort(order))
    out[...] = x
    return out


def batch_innermost(x):
    """A copy of ``x`` stored ``(c, H, W, *batch)``, as a conv layer passes it on."""
    return stored_as(x, core_order(x.ndim))


def is_batch_innermost(x):
    return x.transpose(core_order(x.ndim)).flags.c_contiguous


MATMUL_WIDTHS = (1, 2, 3, 5, 7, 16, 33, 100, 1000, 2048, 2049, 3072, 4097, 9000)
MATMUL_DTYPES = (
    (np.float32, np.float32),
    (np.float64, np.float64),
    (np.float32, np.float64),
    (np.float64, np.float32),
)


def test_matmul_conv_matches_per_filter_loop():
    """Random ``(v, width)`` patch columns against ``(v, n)`` filters, by bytes.

    About 20% of the patch entries are exact zeros and 10% are ``-0.0``,
    and one filter is all ``-0.0``, so a sum that does not start from
    ``+0.0`` or that reorders its terms shows in the bits.
    """
    rng = np.random.default_rng(23)
    for trial in range(4 * len(MATMUL_WIDTHS) * len(MATMUL_DTYPES)):
        width = MATMUL_WIDTHS[trial % len(MATMUL_WIDTHS)]
        col_dtype, filter_dtype = MATMUL_DTYPES[trial // len(MATMUL_WIDTHS) % len(MATMUL_DTYPES)]
        v, n = (int(x) for x in rng.integers(1, (121, 21)))
        cols = rng.normal(size=(v, width))
        u = rng.random(size=(v, width))
        cols[u < 0.2] = 0.0
        cols[u >= 0.9] = -0.0
        filters = rng.normal(size=(v, n)).astype(filter_dtype)
        filters[:, rng.integers(n)] = -0.0
        # the columns of a 1 x width image with v channels under a 1 x 1 kernel
        pm = PatchMatrix(cols.astype(col_dtype), 1, 1, 0, (1, width, v), 1, width)
        assert_same_bits(matmul_conv(pm, filters), matmul_conv_loop(pm, filters))


def random_case(rng, trial):
    """Spec, bank, masks and input for one trial.

    Trials cycle through the variants, the learnable strategies and both
    dtypes; geometry, ``s``, channel windows and batch size are drawn.
    Every 21st trial's batch is empty, cycling through the variants.
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
    x = rng.normal(size=shape).astype(dtype)
    return spec, bank, masks, x.reshape(-1, h, w, c)[:0] if trial % 21 == 20 else x


def reference_maps(x, fhat, biases, spec):
    """``conv_reference`` of each secondary filter, stacked primary-major."""
    images = x if x.ndim == 4 else x[None]
    if not len(images):
        return np.zeros((0, *spec.output_shape(*images.shape[1:3])), np.result_type(x, fhat))
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


def assert_ranges_select_mask_bits(spec, masks):
    """Each mask's view holds exactly its set bits."""
    layout = mask_layout(spec, masks)
    grid, views = layout.grid, layout.views
    bits = masks.dense().astype(bool).reshape(*grid, -1)
    for j, view in enumerate(views):
        kept = np.zeros(grid, dtype=bool)
        kept[view] = True
        assert np.array_equal(kept, bits[..., j])


# sha256 over the sweep's gradients, each BankGrads field and then the
# MaskedConv input gradient, as dtype, shape and bytes; taken before the
# backward wrote its input gradient into the patches' buffer
SWEEP_GRADS_SHA256 = "b9d7b2755238548229c4ec0282095026966eaabd6999b14f193c9966ec6c519b"


@pytest.mark.usefixtures("einsum_backward")
def test_mask_layout_matches_per_secondary_loops_and_reference():
    rng = np.random.default_rng(20)
    covered = set()
    digest = hashlib.sha256()
    for trial in range(N_CASES):
        spec, bank, masks, x = random_case(rng, trial)
        covered |= {
            (spec.variant, spec.strategy, x.dtype.name),
            ("d odd", spec.d % 2),
            ("stride", spec.stride),
            ("padding", spec.padding),
            ("batch", x.shape[0] if x.ndim == 4 else "one image"),
            ("s = 1", spec.variant, spec.s == 1),
            ("c_hat = c", spec.c_hat == spec.c),
        }
        if spec.variant in ("spatial", "channel") or spec.strategy == "shared":
            assert_ranges_select_mask_bits(spec, masks)
        pm = im2col(x, spec.d, spec.stride, spec.padding)
        pm_want = im2col_windows(x, spec.d, spec.stride, spec.padding)
        assert_same_contiguous_bits(pm.cols, pm_want.cols)
        assert (pm.in_shape, pm.out_shape) == (pm_want.in_shape, pm_want.out_shape)

        fhat = secondary_matrix_loop(bank, masks, spec)
        want = reference_maps(x, fhat, bank.biases, spec)

        assert_same_contiguous_bits(bank_forward(x, bank, masks, spec), want)
        conv = MaskedConv(spec, bank, masks)
        batch = x if x.ndim == 4 else x[None]
        y = conv.forward(batch)
        assert is_batch_innermost(y)
        assert_same_bits(y, want if x.ndim == 4 else want[None])
        y, counts = cached_forward(x, bank, masks, spec)
        assert_same_contiguous_bits(y, want)
        h_out = conv_output_size(x.shape[-3], spec.d, spec.stride, spec.padding)
        w_out = conv_output_size(x.shape[-2], spec.d, spec.stride, spec.padding)
        positions = h_out * w_out * (x.shape[0] if x.ndim == 4 else 1)
        covered.add(("one output position", positions == 1))
        assert counts.add_fp32 == cached_adds_loop(masks, spec, positions)

        grad_y = rng.normal(size=want.shape).astype(x.dtype)
        grad_y[..., trial % spec.n_secondary] = 0.0  # a dead map: its products are signed zeros
        grads = bank_backward(grad_y, x, bank, masks, spec)
        same = bank_backward(batch_innermost(grad_y), x, bank, masks, spec)
        for name in ("filters", "biases", "masks", "x"):
            got, want_grad = getattr(same, name), getattr(grads, name)
            if want_grad is None:
                assert got is None
            else:
                assert_same_bits(got, want_grad)
        conv_grad_x = conv.backward(grad_y if x.ndim == 4 else grad_y[None])
        assert_same_bits(conv_grad_x, grads.x if x.ndim == 4 else grads.x[None])
        for got in (grads.filters, grads.biases, grads.masks, grads.x, conv_grad_x):
            if got is not None:
                digest.update(f"{got.dtype} {got.shape}".encode() + got.tobytes())
        grad_cols = rng.normal(size=pm.cols.shape).astype(x.dtype)
        assert_same_bits(col2im(grad_cols, pm), col2im_channel_last(grad_cols, pm))
        assert_same_bits(grads.x, input_grad(grad_y, x, bank, masks, spec))
        ghat = secondary_grads(grad_y, x, bank, masks, spec)
        grad_f, grad_m = grads_from_secondary_loop(ghat, bank, masks, spec)
        assert_same_bits(grads.filters, grad_f)
        if grad_m is None:
            assert grads.masks is None
        else:
            assert_same_bits(grads.masks, grad_m)
    required = {("s = 1", v, True) for v in VARIANTS} | {("c_hat = c", True)}
    required |= {("d odd", 0), ("d odd", 1), ("stride", 2), ("padding", 2)}
    required |= {("batch", b) for b in ("one image", 0, 1, 2, 3)}
    required |= {("one output position", True), ("one output position", False)}
    required |= {
        (v, strategy, t)
        for v in VARIANTS
        for strategy in (STRATEGIES if v == "learnable" else (None,))
        for t in ("float32", "float64")
    }
    assert required <= covered
    assert digest.hexdigest() == SWEEP_GRADS_SHA256


DENSITIES = ("all ones", "all clear", "one kept row", "fair coin")


def density_masks(spec, density, rng):
    """The spec's ``mask_groups`` groups of ``s`` bit masks at one density."""
    v, n_masks = spec.d * spec.d * spec.c, spec.s * spec.mask_groups
    bits = np.zeros((v, n_masks), dtype=bool)
    if density == "all ones":
        bits[:] = True
    elif density == "one kept row":
        bits[rng.integers(v, size=n_masks), np.arange(n_masks)] = True
    elif density == "fair coin":
        bits = rng.random((v, n_masks)) < 0.5
    return from_dense(bits, spec.mask_kind, spec.d, spec.c, spec.s, spec.mask_groups)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.usefixtures("einsum_backward")
def test_bit_mask_densities_match_dense_masked_oracles(strategy):
    """Bit masks all set, all clear, keeping one row each and fair-coin, at
    ``s`` = 1 and 9: every forward path, every :class:`BankGrads` field and
    the ADD tally equal the dense masked-filter oracles by bytes, on a
    single image, a batch and one output position.  A tenth of the inputs
    and a fifth of the filter entries are ``-0.0``, so a sum over gathered
    rows that does not start from ``+0.0`` shows in the bits."""
    rng = np.random.default_rng(26)
    shapes = {"one image": (5, 5), "batch": (3, 5, 5), "one output position": (3, 3)}
    for s in (1, 9):
        spec = LayerSpec("learnable", strategy=strategy, s=s, d=3, c=2, k=2)
        for dtype in (np.float32, np.float64):
            for density in DENSITIES:
                masks = density_masks(spec, density, rng)
                if strategy == "shared":
                    assert_ranges_select_mask_bits(spec, masks)
                    if density == "all ones":  # full slices: no row is copied
                        assert all(isinstance(r, slice) for _, r in mask_layout(spec, masks).views)
                bank = random_bank(spec, int(rng.integers(2**31)), dtype=dtype)
                bank.biases = rng.normal(size=spec.n_secondary).astype(dtype)
                bank.filters.reshape(-1)[::5] = -0.0
                for shape in shapes.values():
                    x = rng.normal(size=(*shape, spec.c)).astype(dtype)
                    x.reshape(-1)[::10] = -0.0
                    pm = im2col_windows(x, spec.d)
                    want = forward_patches_loop(pm, bank, masks, spec)
                    assert_same_contiguous_bits(bank_forward(x, bank, masks, spec), want)
                    y, counts = cached_forward(x, bank, masks, spec)
                    assert_same_contiguous_bits(y, want)
                    assert counts.add_fp32 == cached_adds_loop(masks, spec, pm.cols.shape[1])

                    grad_y = rng.normal(size=want.shape).astype(dtype)
                    grad_y.reshape(-1)[::10] = -0.0
                    grads = bank_backward(grad_y, x, bank, masks, spec)
                    grad_f, grad_m = grads_from_secondary_loop(
                        secondary_grads(grad_y, x, bank, masks, spec), bank, masks, spec
                    )
                    assert_same_bits(grads.filters, grad_f)
                    assert_same_bits(grads.masks, grad_m)
                    assert_same_bits(grads.biases, bias_grads(grad_y, x, bank, masks, spec))
                    assert_same_bits(grads.x, input_grad(grad_y, x, bank, masks, spec))

                    conv = MaskedConv(spec, bank, masks)
                    batch = x if x.ndim == 4 else x[None]
                    assert_same_bits(conv.forward(batch), want.reshape(-1, *want.shape[-3:]))
                    grad_x = conv.backward(grad_y.reshape(-1, *grad_y.shape[-3:]))
                    assert_same_bits(grad_x, grads.x.reshape(batch.shape))
                    for name in ("filters", "biases", "masks"):
                        assert_same_bits(getattr(conv.grads, name), getattr(grads, name))


NON_FINITE = (np.inf, -np.inf, np.nan)


def assert_same_bits_any_nan(got, want):
    """Same bytes once every NaN is one NaN: IEEE 754 leaves a NaN's sign and
    payload to the order of the operands, which a contraction may swap."""

    def one_nan(a):
        return np.where(np.isnan(a), np.array(np.nan, a.dtype), a)

    assert_same_bits(one_nan(got), one_nan(want))


@pytest.mark.parametrize("variant", [*VARIANTS[:3], *STRATEGIES])
def test_filter_and_mask_grads_equal_an_exact_index_order_loop(variant):
    """On small-integer float64 operands in [-3, 3] every partial sum is an
    exact integer, so ``bank_backward``'s filter, mask and bias gradients
    and dL/dx equal, by bytes, those of ``secondary_grads_exact`` and
    ``bias_and_input_grads_exact``, index-order loops that share no code
    with the conv core.  Bit masks run at every density of
    ``test_bit_mask_densities_match_dense_masked_oracles``, over stride 1
    and 2, padding 0 and 1, odd and even ``d``, one image and a batch."""
    rng = np.random.default_rng(29)

    def small(*shape):
        return rng.integers(-3, 4, size=shape).astype(np.float64)

    for d, stride, padding, batch in itertools.product((2, 3), (1, 2), (0, 1), ((), (2,))):
        geometry = dict(d=d, c=3, k=2, stride=stride, padding=padding)
        if variant in STRATEGIES:
            spec = LayerSpec("learnable", strategy=variant, s=3, **geometry)
            cases = [density_masks(spec, density, rng) for density in DENSITIES]
        else:
            spec = LayerSpec(variant, **geometry, **(dict(c_hat=1, g=2) if variant == "channel" else {}))
            cases = [spec.structural_masks()]
        for masks in cases:
            bank = layers.FilterBank(small(spec.k, d, d, spec.c), small(spec.n_secondary))
            x = small(*batch, 5, 6, spec.c)
            grad_y = small(*batch, *spec.output_shape(5, 6))
            grads = bank_backward(grad_y, x, bank, masks, spec, input_grad=True)
            want_f, want_m = grads_from_secondary_loop(secondary_grads_exact(grad_y, x, spec), bank, masks, spec)
            want_b, want_x = bias_and_input_grads_exact(grad_y, x, bank, masks, spec)
            assert_same_bits(grads.filters, want_f)
            assert_same_bits(grads.x, want_x)
            for got, want in ((grads.masks, want_m), (grads.biases, want_b if spec.has_biases else None)):
                if want is None:
                    assert got is None
                else:
                    assert_same_bits(got, want)


def small_integer_case(rng, trial):
    """Spec, masks, bank, input and ``dL/dy`` for one trial of the exact sweep.

    Operands are float64 integers in [-3, 3], so every partial sum of the
    backward is an exact integer.  Trials cycle through the variants and
    the learnable strategies; geometry reaches padding ``d - 1`` and even
    ``d``, and the batch cycles through one image and 0 to 3 images.
    """
    variant = VARIANTS[trial % len(VARIANTS)]
    d, stride, c, k = (int(v) for v in rng.integers((1, 1, 1, 1), (6, 3, 5, 4)))
    padding = int(rng.integers(0, d))
    geometry = dict(d=d, c=c, k=k, stride=stride, padding=padding)
    if variant == "channel":
        c_hat = int(rng.integers(1, c + 1))
        g = int(rng.choice([g for g in range(1, c + 1) if (c - c_hat) % g == 0]))
        spec = LayerSpec("channel", c_hat=c_hat, g=g, **geometry)
    elif variant == "learnable":
        strategy = STRATEGIES[trial // len(VARIANTS) % len(STRATEGIES)]
        spec = LayerSpec("learnable", strategy=strategy, s=int(rng.integers(1, 5)), **geometry)
    else:
        spec = LayerSpec(variant, **geometry)

    def small(*shape):
        return rng.integers(-3, 4, size=shape).astype(np.float64)

    biases = small(spec.n_secondary) if spec.has_biases else None
    bank = layers.FilterBank(small(k, d, d, c), biases)
    low = max(1, d - 2 * padding)
    h, w = (int(v) for v in rng.integers(low, low + 4, size=2))
    batch = ((), (0,), (1,), (2,), (3,))[trial // 2 % 5]
    x = small(*batch, h, w, c)
    grad_y = small(*batch, *spec.output_shape(h, w))
    return spec, masks_for_spec(spec, int(rng.integers(2**31))), bank, x, grad_y


def test_backward_equals_exact_index_order_loops_across_the_sweep():
    """Every :class:`BankGrads` field equals, by bytes, the exact index-order
    loops of ``tests/oracles.py`` over the differential sweep's spec space,
    whatever order the backward's products sum in.  ``bank_backward`` gives
    the same bytes for a batch-innermost ``dL/dy``, and ``MaskedConv`` the
    same gradients as ``bank_backward``."""
    rng = np.random.default_rng(33)
    covered = set()
    for trial in range(N_CASES):
        spec, masks, bank, x, grad_y = small_integer_case(rng, trial)
        covered |= {
            (spec.variant, spec.strategy),
            ("d even", spec.d % 2 == 0),
            ("stride", spec.stride),
            ("padding d - 1", spec.d > 1 and spec.padding == spec.d - 1),
            ("batch", len(x) if x.ndim == 4 else "one image"),
            ("s = 1", spec.variant, spec.s == 1),
            ("c_hat = c", spec.c_hat == spec.c),
        }
        grads = bank_backward(grad_y, x, bank, masks, spec)
        want_f, want_m = grads_from_secondary_loop(secondary_grads_exact(grad_y, x, spec), bank, masks, spec)
        want_b, want_x = bias_and_input_grads_exact(grad_y, x, bank, masks, spec)
        assert_same_bits(grads.filters, want_f)
        assert_same_bits(grads.x, want_x)
        for got, want in ((grads.masks, want_m), (grads.biases, want_b if spec.has_biases else None)):
            if want is None:
                assert got is None
            else:
                assert_same_bits(got, want)

        same = bank_backward(batch_innermost(grad_y), x, bank, masks, spec)
        conv = MaskedConv(spec, bank, masks)
        conv.forward(x if x.ndim == 4 else x[None])
        conv_grad_x = conv.backward(grad_y if x.ndim == 4 else grad_y[None])
        assert_same_bits(conv_grad_x, grads.x if x.ndim == 4 else grads.x[None])
        for name in ("filters", "biases", "masks"):
            for got in (getattr(same, name), getattr(conv.grads, name)):
                want = getattr(grads, name)
                assert (got is None) == (want is None)
                if want is not None:
                    assert_same_bits(got, want)
        assert_same_bits(same.x, grads.x)
    required = {(v, None) for v in VARIANTS[:3]} | {("learnable", strategy) for strategy in STRATEGIES}
    required |= {("s = 1", v, True) for v in VARIANTS} | {("c_hat = c", True)}
    required |= {("d even", True), ("d even", False), ("stride", 2), ("padding d - 1", True)}
    required |= {("batch", b) for b in ("one image", 0, 1, 2, 3)}
    assert required <= covered


@pytest.mark.parametrize(
    "spec",
    [
        LayerSpec("spatial", d=5, c=2, k=2),
        LayerSpec("spatial", d=4, c=3, k=2),
        LayerSpec("channel", d=3, c=4, k=2, c_hat=2, g=1),
    ],
    ids=lambda spec: f"{spec.variant}_d{spec.d}_c{spec.c}",
)
@pytest.mark.usefixtures("einsum_backward")
def test_structural_filter_grads_sum_each_term_in_one_run(spec):
    """Past 8192 output positions einsum's buffered iterator cuts a sum
    over a 3-D view of the patch rows, a spatial ring's sides or a channel
    segment, into 8192-term runs.  The filter gradient still equals, by
    bytes on random float64 operands, the one from a standard layer of the
    secondaries, which contracts the whole patch matrix in one run."""
    rng = np.random.default_rng(31)
    bank = random_bank(spec, 31)
    x = rng.normal(size=(12, 32, 32, spec.c))
    grad_y = rng.normal(size=(12, *spec.output_shape(32, 32)))
    assert grad_y.size // spec.n_secondary > 8192
    masks = spec.structural_masks()
    want, _ = grads_from_secondary_loop(secondary_grads(grad_y, x, bank, masks, spec), bank, masks, spec)
    assert_same_bits(bank_backward(grad_y, x, bank, None, spec, input_grad=False).filters, want)


@np.errstate(invalid="ignore")  # inf - inf and 0 * inf are the point here
def test_non_finite_inputs_forward_equals_reference():
    """``inf``, ``-inf`` and NaN in the input, or every fifth trial in the
    filters, at entries that a mask keeps and at entries that it drops:
    every forward path still gives the stacked ``conv_reference`` maps."""
    rng = np.random.default_rng(25)
    covered = set()
    for trial in range(120):
        spec, bank, masks, x = random_case(rng, trial)
        bits = np.ones((spec.d * spec.d * spec.c, 1), bool) if masks is None else masks.dense().astype(bool)
        place = "filters" if trial % 5 == 4 else "input"
        if place == "filters":
            at = int(rng.integers(bank.filters.size))
            bank.filters.reshape(-1)[at] = rng.choice(NON_FINITE)
            held = bits[at % len(bits)][None]  # the masks' bits at that filter entry
        else:
            flat = x.reshape(-1)
            for at in rng.integers(flat.size, size=int(rng.integers(1, 4))) if flat.size else ():
                flat[at] = rng.choice(NON_FINITE)
            cols = im2col(x, spec.d, spec.stride, spec.padding).cols
            held = bits[~np.isfinite(cols).all(axis=1)]  # the masks' bits on the non-finite patch rows
        want = reference_maps(x, secondary_matrix_loop(bank, masks, spec), bank.biases, spec)
        y = bank_forward(x, bank, masks, spec)
        assert y.flags.c_contiguous
        assert_same_bits_any_nan(y, want)
        y = MaskedConv(spec, bank, masks).forward(x.reshape(-1, *x.shape[-3:]))
        assert_same_bits_any_nan(y, want.reshape(y.shape))
        y, _ = cached_forward(x, bank, masks, spec)
        assert y.flags.c_contiguous
        assert_same_bits_any_nan(y, want)
        covered.add((spec.variant, spec.strategy, x.dtype.name))
        covered |= {(spec.variant, place, "kept")} if held.any() else set()
        covered |= {(spec.variant, place, "dropped")} if not held.all() else set()
    required = {
        (v, strategy, t)
        for v in VARIANTS
        for strategy in (STRATEGIES if v == "learnable" else (None,))
        for t in ("float32", "float64")
    }
    for place in ("input", "filters"):
        required |= {(v, place, "kept") for v in VARIANTS}
        required |= {(v, place, "dropped") for v in VARIANTS if v != "standard"}
    assert required <= covered


def _non_finite_case(name):
    """``(spec, masks, x, grad_y)``: ones, with an ``inf`` in ``x`` at a patch
    row that mask 1 drops and an ``inf`` in mask 1's map of ``dL/dy``."""
    if name == "shared":  # mask 1 keeps only channel 0
        spec = LayerSpec("learnable", strategy="shared", s=2, d=1, c=8, k=1)
        bits = np.ones((8, 2), dtype=bool)
        bits[1:, 1] = False
        masks, x = from_dense(bits, spec.mask_kind, 1, 8, 2), np.ones((1, 1, 8))
        x[0, 0, 3] = np.inf
    elif name == "spatial":  # a corner tap: the inner square drops it
        spec = LayerSpec("spatial", d=3, c=1, k=1)
        masks, x = spec.structural_masks(), np.ones((3, 3, 1))
        x[0, 0, 0] = np.inf
    else:  # windows 0:2 and 3:5, channel 2 in none
        spec = LayerSpec("channel", d=1, c=5, k=1, c_hat=2, g=3)
        masks, x = spec.structural_masks(), np.ones((1, 1, 5))
        x[0, 0, 2] = np.inf
    grad_y = np.ones(spec.output_shape(*x.shape[:2]))
    grad_y[..., 1] = np.inf
    return spec, masks, x, grad_y


@pytest.mark.parametrize("name", ["shared", "spatial", "channel"])
@np.errstate(invalid="ignore")  # the oracles' 0 * inf is the point here
def test_non_finite_backward_equals_dense_masked_oracle(name):
    """Every variant's backward runs every patch row and masked secondary,
    a dropped row a zero in it, even on ``inf``: at a row that mask 1 drops,
    the dense masked oracles add ``0 * inf = NaN`` to the filter gradient
    from ``x`` and to the input gradient from ``dL/dy``, and so does
    ``bank_backward``.  Operands are ones and ``inf``, so every sum is
    exact in any order."""
    spec, masks, x, grad_y = _non_finite_case(name)
    bank = random_bank(spec, seed=0)
    got = bank_backward(grad_y, x, bank, masks, spec)
    want_f, want_m = grads_from_secondary_loop(secondary_grads(grad_y, x, bank, masks, spec), bank, masks, spec)
    want_x = input_grad(grad_y, x, bank, masks, spec)
    assert np.isnan(want_f).any() and np.isnan(want_x).any()
    assert_same_bits_any_nan(got.filters, want_f)
    assert_same_bits_any_nan(got.x, want_x)
    if want_m is not None:
        assert_same_bits_any_nan(got.masks, want_m)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_masked_conv_bits_do_not_depend_on_memory_order(dtype):
    """One batch and its ``dL/dy`` stored channel-last, map-major ``(c, B, H, W)``
    or batch-innermost ``(c, H, W, B)``: ``MaskedConv`` gives the same bytes
    for the output, the input gradient and every :class:`BankGrads` field.
    The conv1-shaped one-channel batch is sliced directly by ``im2col`` when
    stored batch-innermost and copied otherwise; the padded one is always
    copied."""
    rng = np.random.default_rng(27)
    cases = (
        (LayerSpec("standard", d=5, c=1, k=8), (16, 28, 28, 1)),
        (LayerSpec("learnable", strategy="separate", s=2, d=3, c=4, k=3, padding=1), (5, 12, 12, 4)),
    )
    for spec, shape in cases:
        x = rng.normal(size=shape).astype(dtype)
        grad_y = rng.normal(size=(shape[0], *spec.output_shape(*shape[1:3]))).astype(dtype)
        runs = []
        for order in ((0, 1, 2, 3), (3, 0, 1, 2), (3, 1, 2, 0)):
            conv = MaskedConv(spec, random_bank(spec, seed=1, dtype=dtype), masks_for_spec(spec, 1))
            y = conv.forward(stored_as(x, order))
            grad_x = conv.backward(stored_as(grad_y, order))
            runs.append((y, grad_x, conv.grads.filters, conv.grads.biases, conv.grads.masks))
        for run in runs[1:]:
            for got, want in zip(run, runs[0]):
                assert (got is None) == (want is None)
                if want is not None:
                    assert_same_bits(got, want)


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
                # a batch-innermost batch, as a conv layer passes it on: same bytes, same order
                y = pool.forward(batch_innermost(x))
                assert is_batch_innermost(y)
                assert_same_bits(y, avgpool_mean(x))
                up = pool.backward(batch_innermost(grad))
                assert is_batch_innermost(up)
                assert_same_bits(up, avgpool_repeat_backward(grad))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.usefixtures("einsum_backward")
def test_dense_weight_grad_matches_batch_major_einsum(dtype):
    rng = np.random.default_rng(24)
    # the small CNN's dense layers at its default and its test sizes
    for n_in, n_out in ((400, 64), (64, 10), (200, 16), (16, 10)):
        dense = Dense.init(n_in, n_out, seed=0, dtype=dtype)
        for batch in (1, 2, 3, 7, 16, 33, 64, 65, 256):
            x = rng.normal(size=(batch, n_in)).astype(dtype)
            x[rng.random(x.shape) < 0.4] = 0.0  # post-ReLU inputs
            grad = rng.normal(size=(batch, n_out)).astype(dtype)
            dense.forward(x)
            dense.backward(grad)
            assert_same_bits(dense.grad_w, np.einsum("bi,bo->io", x, grad))



@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dense_grads_equal_an_exact_index_order_loop(dtype):
    """At the sizes above, on small-integer operands (every partial sum an
    exact integer), ``Dense``'s weight and input gradients equal
    ``dense_grads_exact`` by bytes, whatever order their products sum in;
    post-ReLU zeros make some weight-gradient rows sums of signed zeros."""
    rng = np.random.default_rng(34)

    def small(*shape):
        return rng.integers(-3, 4, size=shape).astype(dtype)

    for n_in, n_out in ((400, 64), (64, 10), (200, 16), (16, 10)):
        dense = Dense(small(n_in, n_out), small(n_out))
        for batch in (1, 2, 3, 7, 16, 33, 64, 65, 256):
            x = np.maximum(small(batch, n_in), 0)
            grad = small(batch, n_out)
            dense.forward(x)
            grad_x = dense.backward(grad)
            want_w, want_x = dense_grads_exact(x, grad, dense.w)
            assert_same_bits(dense.grad_w, want_w)
            assert_same_bits(grad_x, want_x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_filter_bits_do_not_depend_on_sibling_filters(dtype):
    """A lone filter or unit gives the bytes it gives beside a second one.

    numpy would sum a lone dot product of more than 8192 terms in chunks,
    a lone dense output or input gradient in SIMD lanes, and a lone conv
    or dense bias gradient pairwise.
    """
    rng = np.random.default_rng(25)
    pair, lone = (LayerSpec("standard", d=1, c=1, k=k) for k in (2, 1))
    bank = random_bank(pair, seed=0, dtype=dtype)
    first = layers.FilterBank(bank.filters[:1], bank.biases[:1])
    x = rng.normal(size=(1, 96, 96, 1)).astype(dtype)
    grad_y = rng.normal(size=(1, 96, 96, 2)).astype(dtype)
    assert_same_bits(bank_forward(x, first, None, lone), bank_forward(x, bank, None, pair)[..., :1])
    got = bank_backward(grad_y[..., :1], x, first, None, lone)
    want = bank_backward(grad_y, x, bank, None, pair)
    assert_same_bits(got.filters, want.filters[:1])
    assert_same_bits(got.biases, want.biases[:1])

    for n_in, batch in ((300, 4), (1, 4), (1, 9000)):
        wide = Dense.init(n_in, 2, seed=0, dtype=dtype)
        narrow = Dense(wide.w[:, :1], wide.b[:1])
        x = rng.normal(size=(batch, n_in)).astype(dtype)
        grad = rng.normal(size=(batch, 2)).astype(dtype)
        assert_same_bits(narrow.forward(x), wide.forward(x)[:, :1])
        narrow.backward(grad[:, :1])
        wide.backward(grad)
        assert_same_bits(narrow.grad_w, wide.grad_w[:, :1])
        assert_same_bits(narrow.grad_b, wide.grad_b[:1])
    # one input: the input gradient's lone column
    wide = Dense.init(2, 300, seed=0, dtype=dtype)
    narrow = Dense(wide.w[:1], wide.b)
    x = rng.normal(size=(4, 2)).astype(dtype)
    grad = rng.normal(size=(4, 300)).astype(dtype)
    narrow.forward(x[:, :1])
    wide.forward(x)
    assert_same_bits(narrow.backward(grad), wide.backward(grad)[:, :1])


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
    for module in (convref, layers, network):  # every module that binds im2col
        monkeypatch.setattr(module, "im2col", im2col_windows)

    def pool_forward(self, x):
        self._in_shape = x.shape
        return avgpool_mean(x)

    monkeypatch.setattr(AvgPool2, "forward", pool_forward)
    monkeypatch.setattr(AvgPool2, "backward", lambda self, grad: avgpool_repeat_backward(grad))
    monkeypatch.setattr(network, "forward_patches", forward_patches_loop)
    monkeypatch.setattr(convref, "col2im", col2im_channel_last)
    assert trained_checkpoints(tmp_path) == live
