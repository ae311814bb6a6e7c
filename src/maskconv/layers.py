"""Forward and backward passes for masked convolution filter banks.

A layer owns ``k`` primary filters.  Each primary spawns ``s`` secondary
filters by elementwise masking (or channel windowing), so the layer emits
``n = k * s`` feature maps, ordered primary-major: all masks of filter 1,
then filter 2, and so on.  Variants:

``standard``   no masks, one output per primary (s = 1);
``spatial``    nested centered-square masks, s = ceil(d/2), shared across
               primaries;
``channel``    sliding channel windows, no biases;
``learnable``  learned or random-fixed bit masks, shared or separate.

One forward, :func:`forward_patches`, and one backward,
:func:`bank_backward`, serve every variant on an image or a batch; the
backward returns the loss's gradient, a primary's the sum of its
secondaries'.  Each output channel equals ``conv_reference(x, mask *
filter) + bias`` exactly, a NaN counting as one NaN.  What each mask
keeps, which rows a kernel may skip and which maps repeat is
:class:`MaskLayout`'s rule; the reduction and memory orders are
:mod:`maskconv.convref`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from maskconv import convref
from maskconv.convref import PatchMatrix, ShapeError, _blas_contract, _contract, im2col
from maskconv.masks import STRATEGY_KINDS, MaskSet, channel_windows, spatial_masks

VARIANTS = ("standard", "spatial", "channel", "learnable")
STRATEGIES = ("shared", "separate", "random-fixed")


@dataclass
class LayerSpec:
    """Configuration of one masked convolution layer.

    Fields the variant does not read stay unset; an ``s`` the variant
    fixes is either unset or that value.
    """

    variant: str
    d: int
    c: int
    k: int
    strategy: str | None = None
    s: int | None = None
    c_hat: int | None = None
    g: int | None = None
    stride: int = 1
    padding: int = 0
    lam: float = 0.0
    name: str = "conv"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ShapeError(f"unknown variant {self.variant!r}")
        if min(self.d, self.c, self.k) < 1 or self.stride < 1 or self.padding < 0:
            raise ShapeError(f"invalid layer geometry in {self}")
        if not self.lam >= 0:
            raise ShapeError(f"orthogonality weight must be >= 0, got {self.lam}")
        if self.strategy is not None and self.variant != "learnable":
            raise ShapeError(f"{self.variant} layers take no strategy, got {self.strategy!r}")
        if (self.c_hat, self.g) != (None, None) and self.variant != "channel":
            raise ShapeError(f"{self.variant} layers take no c_hat or g")
        if self.variant == "standard":
            if self.s not in (None, 1):
                raise ShapeError("standard layers have s = 1")
            self.s = 1
        elif self.variant == "spatial":
            forced = (self.d + 1) // 2
            if self.s not in (None, forced):
                raise ShapeError(f"spatial s must be ceil(d/2) = {forced}, got {self.s}")
            self.s = forced
        elif self.variant == "channel":
            if self.c_hat is None or self.g is None:
                raise ShapeError("channel variant needs c_hat and g")
            if not 1 <= self.c_hat <= self.c or self.g < 1 or (self.c - self.c_hat) % self.g:
                raise ShapeError(
                    f"invalid channel window: c={self.c} c_hat={self.c_hat} g={self.g}"
                )
            windows = (self.c - self.c_hat) // self.g + 1
            if self.s not in (None, windows):
                raise ShapeError(f"channel s must be (c - c_hat)/g + 1 = {windows}, got {self.s}")
            self.s = windows
        else:  # learnable
            if self.strategy not in STRATEGIES:
                raise ShapeError(f"learnable variant needs a strategy, got {self.strategy!r}")
            if self.s is None or self.s < 1:
                raise ShapeError("learnable variant needs s >= 1")

    @property
    def n_secondary(self) -> int:
        return self.k * self.s

    @property
    def has_biases(self) -> bool:
        return self.variant != "channel"

    @property
    def mask_kind(self) -> str | None:
        """Kind of the bit masks a learnable layer reads; None for other variants."""
        return STRATEGY_KINDS[self.strategy] if self.variant == "learnable" else None

    @property
    def mask_groups(self) -> int:
        """Groups of ``s`` masks: one per primary if separate or random-fixed, else 1 shared."""
        return self.k if self.strategy in ("separate", "random-fixed") else 1

    def structural_masks(self) -> MaskSet | None:
        """Hand-crafted masks implied by the variant, if any."""
        if self.variant == "spatial":
            return spatial_masks(self.d, self.c)
        if self.variant == "channel":
            return channel_windows(self.d, self.c, self.c_hat, self.g)
        return None

    def output_shape(self, h: int, w: int) -> tuple[int, int, int]:
        return (
            convref.conv_output_size(h, self.d, self.stride, self.padding),
            convref.conv_output_size(w, self.d, self.stride, self.padding),
            self.n_secondary,
        )


def spec_for_maps(variant: str, n: int, **fields) -> LayerSpec:
    """The spec whose ``k`` primaries of ``s`` masks each emit ``n`` maps.

    ``s`` follows from the variant and ``fields`` as in :class:`LayerSpec`;
    raises :class:`ShapeError` when ``n`` is not a multiple of it.
    """
    unit = LayerSpec(variant, k=1, **fields)
    if n % unit.s:
        raise ShapeError(f"{n} maps not divisible by s={unit.s}")
    return replace(unit, k=n // unit.s)


@dataclass
class FilterBank:
    """Primary filters ``(k, d, d, c)`` plus ``(n,)`` biases iff the spec
    has them, else ``None``: the spec owns the shape (:func:`check_bank`)."""

    filters: np.ndarray
    biases: np.ndarray | None = None

    def __post_init__(self):
        self.filters = np.asarray(self.filters)
        if self.filters.ndim != 4:
            raise ShapeError(f"filters must be (k, d, d, c), got {self.filters.shape}")
        if self.biases is not None:
            self.biases = np.asarray(self.biases)

    @property
    def k(self) -> int:
        return self.filters.shape[0]

    def filter_matrix(self) -> np.ndarray:
        """(d*d*c, k) matrix of vectorized primaries."""
        return self.filters.reshape(self.k, -1).T


def random_bank(spec: LayerSpec, seed: int, scale: float = 1.0, dtype=np.float64) -> FilterBank:
    rng = np.random.default_rng(seed)
    filters = (rng.normal(size=(spec.k, spec.d, spec.d, spec.c)) * scale).astype(dtype)
    biases = np.zeros(spec.n_secondary, dtype=dtype) if spec.has_biases else None
    return FilterBank(filters, biases)


def check_bank(bank: FilterBank, spec: LayerSpec) -> np.ndarray | None:
    """The biases of ``bank``, once its shape is ``spec``'s: ``(k, d, d, c)``
    filters and ``(n,)`` biases iff ``spec.has_biases``; else :class:`ShapeError`."""
    want = ((spec.k, spec.d, spec.d, spec.c), (spec.n_secondary,) if spec.has_biases else None)
    got = (bank.filters.shape, None if bank.biases is None else bank.biases.shape)
    if got != want:
        raise ShapeError(
            f"layer {spec.name}: a {spec.variant} bank needs {want[0]} filters and biases {want[1]},"
            f" got {got[0]} and {got[1]}"
        )
    return bank.biases


def check_patches(pm: PatchMatrix, spec: LayerSpec) -> None:
    """Raise :class:`ShapeError` unless ``pm`` is the :func:`im2col` of a ``spec`` layer's input."""
    want, got = (spec.d, spec.stride, spec.padding, spec.c), (pm.d, pm.stride, pm.padding, pm.in_shape[-1])
    if got != want:
        raise ShapeError(f"layer {spec.name}: needs patches of (d, stride, padding, c) {want}, got {got}")


_FULL = slice(None)


class MaskLayout:
    """What a layer's masks select from its patch rows (see :func:`mask_layout`).

    **Bits.**  ``bits`` is the layer's one ``(d*d*c, n_masks)`` bit matrix:
    a learnable layer's mask bits, a spatial or channel layer's
    :meth:`LayerSpec.structural_masks`, one all-ones column for a standard
    layer.  ``kept`` counts each mask's rows and ``skips_rows`` says that
    one drops a row.  ``columns`` maps secondary ``i*s + j`` to mask
    ``(i*s + j) % n_masks``, and bit masks that are not the spec's
    ``mask_groups`` groups of ``s`` raise :class:`ShapeError`.

    **Kept rows.**  The rows form a ``grid`` ``(T, R)``: ``(d, d*c)`` for
    spatial squares, ``(d*d, c)`` for channel windows, ``(1, d*d*c)``
    otherwise.  Mask ``j`` keeps the rows ``views[j]``, a ``(t, r)`` index
    of it: slices for a spatial square or channel window, and for one
    shared group of bit masks its set bits' ascending index array, or a
    full slice if it keeps every row.  Standard layers have one full view,
    and so have separate and random-fixed bits: their forward runs the
    distinct secondaries' masked filters over it, since a gather per
    secondary copies about as much as it saves.  The views are the
    forward's.  On finite patches and filters a skipped row drops only
    signed-zero addends, which change no sum from ``+0.0``; with an inf or
    NaN it would drop a ``0 * inf`` term, so the forward then runs the full
    view.  The backward skips no row: it runs every row and masked
    secondary, a dropped row a zero in it.

    **Repeats.**  ``sources[g, j]`` is the first mask of group ``g`` with
    mask ``j``'s bits, or ``sources`` is ``None`` when no mask repeats one.
    A repeated mask's secondaries equal the earlier mask's, so a forward
    runs the ``distinct`` maps into the first rows and moves the rest into
    place by the ``copies``, ``(row, source row)`` pairs in descending row
    order so that each row is read before it is written; a distinct map
    that is not in its own row moves too.
    """

    def __init__(self, spec: LayerSpec, masks: MaskSet | None = None):
        d, c, s, n, groups = spec.d, spec.c, spec.s, spec.n_secondary, spec.mask_groups
        v = d * d * c
        learnable = spec.variant == "learnable"
        got = None if masks is None else (masks.d, masks.c, masks.s, masks.k)
        if learnable and got != (d, c, s, groups):
            raise ShapeError(f"spec {spec} needs masks of (d, c, s, groups) {(d, c, s, groups)}, got {got}")
        given = masks if learnable else spec.structural_masks()
        self.bits = bits = np.ones((v, 1), dtype=bool) if given is None else given.bits
        self.columns = np.arange(n) % (s * groups)
        self.kept = bits.sum(axis=0)
        self.skips_rows = bool(self.kept.min() < v)

        self.grid, self.views = (1, v), [(_FULL, _FULL)]
        if spec.variant == "spatial":
            self.grid = (d, d * c)
            self.views = [(slice(j, d - j), slice(j * c, (d - j) * c)) for j in range(s)]
        elif spec.variant == "channel":
            self.grid = (d * d, c)
            self.views = [(_FULL, slice(a, a + spec.c_hat)) for a in range(0, s * spec.g, spec.g)]
        elif learnable and groups == 1:
            self.views = [(_FULL, rows if len(rows) < v else _FULL) for rows in map(np.flatnonzero, bits.T)]

        self.sources = None
        if s > 1:
            # first[g, j]: the first mask of group g with mask j's bits, each mask's
            # bits a dict key, so that no pair of masks is compared
            first = np.empty((groups, s), dtype=np.intp)
            for g, group in enumerate(bits.T.reshape(groups, s, -1)):
                seen = {}
                first[g] = [seen.setdefault(mask.tobytes(), j) for j, mask in enumerate(group)]
            # first[g, j] <= j, so the sum falls short of that of every j iff some mask repeats
            self.sources = first if first.sum() < groups * (s * (s - 1) // 2) else None
        maps = np.arange(n)
        self.distinct, self.copies = maps, []
        if self.sources is not None:
            # each map's source: its primary's map of the first mask with its bits
            source = (np.arange(0, n, s)[:, None] + self.sources).reshape(-1)
            self.distinct = np.flatnonzero(source == maps)
            packed = np.searchsorted(self.distinct, source)  # the source's row among the distinct maps
            self.copies = [(int(m), int(packed[m])) for m in np.flatnonzero(packed != maps)[::-1]]

    @property
    def selector(self) -> np.ndarray:
        """``(n, d*d*c)`` C-contiguous bools, the rows each secondary's mask
        keeps: ``bits`` per secondary, built on each use."""
        return self.bits.T[self.columns]


def mask_layout(spec: LayerSpec, masks: MaskSet | None = None) -> MaskLayout:
    """The :class:`MaskLayout` of ``spec`` and ``masks``, derived once and kept.

    A learnable layer's layout is kept on its :class:`MaskSet`, whose bits
    are read-only, any other on the spec, whose fields alone fix it; each
    keyed by the spec fields the layout reads.  A learnable layer needs
    masks; other layers ignore them.
    """
    owner = masks if spec.variant == "learnable" and masks is not None else spec
    key = (spec.variant, spec.strategy, spec.d, spec.c, spec.k, spec.s, spec.c_hat, spec.g)
    layouts = owner.__dict__.setdefault("_layouts", {})
    if key not in layouts:
        layouts[key] = MaskLayout(spec, masks)
    return layouts[key]


def forward_patches(
    pm: PatchMatrix, bank: FilterBank, masks: MaskSet | None, spec: LayerSpec
) -> np.ndarray:
    """Forward pass over an :func:`im2col` patch matrix of an image or a batch.

    Returns the ``pm.out_shape + (n,)`` maps, primary-major, plus biases,
    as a view of contiguous ``(n, l)`` rows in the core's batch-innermost
    memory order (see :mod:`maskconv.convref`).  Each distinct masked
    secondary runs once, over the rows its mask keeps or over the full
    view, and its repeats copy its maps, as :class:`MaskLayout` states.
    """
    check_patches(pm, spec)
    biases = check_bank(bank, spec)
    k, s, n = spec.k, spec.s, spec.n_secondary
    layout = mask_layout(spec, masks)
    cols, filters = pm.cols, np.ascontiguousarray(bank.filters)
    # decided before maps is allocated, beside which isfinite's temporary
    # would raise the peak
    full_view = spec.mask_groups > 1 or (
        layout.skips_rows and not (pm.finite() and np.isfinite(filters).all())
    )
    maps = np.empty((n, cols.shape[1]), dtype=np.result_type(cols, filters))
    distinct = layout.distinct
    packed = maps[: len(distinct)]
    if full_view:
        masked = filters.reshape(k, -1)[distinct // s] * layout.selector[distinct]
        grid = (1, len(cols))
        jobs = [((_FULL, _FULL), masked.reshape(-1, *grid), packed)]
    else:
        grid, masks_run = layout.grid, distinct[: len(distinct) // k]  # the first primary's distinct maps
        by_mask = packed.reshape(k, len(masks_run), -1)
        jobs = [(layout.views[j], filters.reshape(k, *grid), by_mask[:, i]) for i, j in enumerate(masks_run)]
    rows = cols.reshape(*grid, -1)
    for (t, r), f_rows, out in jobs:
        _contract("trl,ktr->kl", rows[t, r], f_rows[:, t, r], out=out)
    for m, source in layout.copies:
        maps[m] = maps[source]
    if biases is not None:
        maps += biases[:, None]
    maps = maps.reshape(n, pm.h_out, pm.w_out, *pm.in_shape[:-3])
    return convref._channels_last(maps)


def bank_forward(
    x: np.ndarray, bank: FilterBank, masks: MaskSet | None, spec: LayerSpec
) -> np.ndarray:
    """Forward pass for any variant; output (..., H', W', n), primary-major.

    ``x`` is one ``(H, W, c)`` image or a ``(B, H, W, c)`` batch.  The
    output is C-contiguous.
    """
    pm = im2col(x, spec.d, spec.stride, spec.padding)
    return np.ascontiguousarray(forward_patches(pm, bank, masks, spec))


def naive_sum_forward(
    x: np.ndarray, f: np.ndarray, bias: float = 0.0, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Summed-scale baseline: add all pyramid responses into one map.

    Collapses to a single convolution with the pyramid-weighted filter,
    which is why it is a baseline and not a useful variant.
    """
    f = np.asarray(f)
    d, c = f.shape[0], f.shape[2]
    spec = LayerSpec("spatial", d=d, c=c, k=1, stride=stride, padding=padding)
    channels = bank_forward(x, FilterBank(f[None], np.zeros(spec.s, dtype=f.dtype)), None, spec)
    return np.add.reduce(channels, axis=2) + bias


@dataclass
class BankGrads:
    """Backward-pass results for one layer, summed over the batch."""

    filters: np.ndarray
    biases: np.ndarray | None
    masks: np.ndarray | None  # real-relaxed, (d*d*c, n_mask_columns)
    x: np.ndarray | None  # None when the input gradient was not asked for


def bank_backward(
    grad_y: np.ndarray,
    x: np.ndarray | None,
    bank: FilterBank,
    masks: MaskSet | None,
    spec: LayerSpec,
    patches: PatchMatrix | None = None,
    input_grad: bool = True,
) -> BankGrads:
    """Analytic gradients for filters, masks, biases, and the input.

    ``x`` is an image or a batch, as in :func:`bank_forward`; it is not
    read when the forward's ``patches`` are passed.  Passed ``patches`` are
    consumed: once the filter gradient has read them, the input-gradient
    columns reuse their buffer, unless it is read-only, not C-contiguous
    or of another dtype.  Returns the :class:`BankGrads` summed over the
    batch; the input gradient has ``x``'s shape in the core's memory
    order, or is ``None`` with ``input_grad=False``, which skips its
    product and scatter.  Every variant runs the dense masked products:
    one over every patch row and map for the filter and mask gradients,
    and one over every masked secondary, a dropped row a zero in it, for
    the input gradient; so both equal those products even with an inf or
    NaN.
    Each sum runs in the order of :mod:`maskconv.convref`, so ``grad_y``'s
    memory order does not change the bits.
    """
    if patches is None:
        if x is None:
            raise ShapeError("bank_backward needs x or the forward's patches")
        patches = im2col(x, spec.d, spec.stride, spec.padding)
    check_patches(patches, spec)
    n = spec.n_secondary
    out_shape = patches.out_shape + (n,)
    if grad_y.shape != out_shape:
        raise ShapeError(f"grad_y shape {grad_y.shape} != output shape {out_shape}")
    # (n, l) rows keep both contractions' inner loops on contiguous memory; a
    # batch-innermost grad_y, as the layers pass it on, gives them without a copy
    grad_T = np.ascontiguousarray(convref._channels_first(grad_y)).reshape(n, -1)
    cols, fmat = patches.cols, bank.filter_matrix()
    k, s, v = spec.k, spec.s, cols.shape[0]
    sel = mask_layout(spec, masks).selector.T.reshape(v, k, s)
    # each (row, primary, mask) filter-gradient term; two-dimensional operands,
    # so that on the einsum path each term sums its l products in one run
    terms = _blas_contract("vl,nl->vn", cols, grad_T).reshape(v, k, s)
    grad_x = None
    if input_grad:
        # the filter gradient has read the patches, so their buffer takes the input-gradient columns
        masked = (fmat[:, :, None] * sel).reshape(v, n)  # the masked secondaries
        dtype = np.result_type(fmat, grad_T)
        reuse = cols.dtype == dtype and cols.flags.c_contiguous and cols.flags.writeable
        grad_cols = _blas_contract("vn,nl->vl", masked, grad_T, out=cols if reuse else None)
        grad_x = convref.col2im(grad_cols.astype(cols.dtype, copy=False), patches)

    grad_f = np.zeros((v, k), dtype=fmat.dtype)
    for j in range(s):  # each primary takes its masks' terms in order j, from zero
        grad_f += terms[:, :, j] * sel[:, :, j]
    grad_m = None
    if spec.variant == "learnable":
        groups = spec.mask_groups
        grad_m = np.zeros((v, groups, s), dtype=fmat.dtype)
        for i in range(0, k, groups):  # every bit's term, cleared ones too: straight through
            grad_m += terms[:, i : i + groups] * fmat[:, i : i + groups, None]
        grad_m = grad_m.reshape(v, -1)

    grad_b = None
    if spec.has_biases:
        # a lone map sums beside a zero row, as it would beside a sibling
        rows = grad_T if n > 1 else np.vstack([grad_T, np.zeros_like(grad_T)])
        grad_b = np.einsum("nl->n", rows)[:n]
    return BankGrads(grad_f.T.reshape(bank.filters.shape), grad_b, grad_m, grad_x)
