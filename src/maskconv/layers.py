"""Forward and backward passes for masked convolution filter banks.

A layer owns ``k`` primary filters.  Each primary spawns ``s`` secondary
filters by elementwise masking (or channel windowing), so the layer emits
``n = k * s`` feature maps, ordered primary-major: all masks of filter 1,
then filter 2, and so on.  Variants:

``standard``   no masks, one output per primary (s = 1);
``spatial``    nested centered-square masks, s = ceil(d/2), shared across
               primaries; filter and input gradients are divided by s
               because both are reused at every scale;
``channel``    sliding channel windows, no biases;
``learnable``  learned or random-fixed bit masks, shared or separate.

The one forward, :func:`forward_patches`, builds the explicit
masked-filter matrix and runs it through :func:`convref.matmul_conv`, so
each output channel equals ``conv_reference(x, mask * filter) + bias``
exactly.  The one backward, :func:`bank_backward`, runs its two
contractions through numpy's single-threaded C ``einsum`` rather than
BLAS, so its bits do not depend on the thread count, and can skip the
input gradient of a first layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from maskconv import convref
from maskconv.convref import PatchMatrix, ShapeError, im2col
from maskconv.masks import SEPARATE_KINDS, STRATEGY_KINDS, MaskSet, channel_windows, spatial_masks

VARIANTS = ("standard", "spatial", "channel", "learnable")
STRATEGIES = ("shared", "separate", "random-fixed")


@dataclass
class LayerSpec:
    """Configuration of one masked convolution layer."""

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
        if self.lam < 0:
            raise ShapeError("orthogonality weight must be >= 0")
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
            self.s = (self.c - self.c_hat) // self.g + 1
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
        """Mask groups of ``s``: one per primary for separate-style kinds, else 1."""
        return self.k if self.mask_kind in SEPARATE_KINDS else 1

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
    """Primary filters (k, d, d, c) plus one bias per secondary filter."""

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


def mask_columns(masks: MaskSet | None, spec: LayerSpec) -> np.ndarray:
    """Index of the mask column serving each of the ``n`` secondaries.

    Secondary ``i*s + j`` (primary ``i``, mask ``j``) reads column
    ``i*s + j`` of per-primary masks and column ``j`` of shared ones.
    Raises :class:`ShapeError` when the masks do not fit the spec.
    """
    if masks is None:
        raise ShapeError(f"{spec.variant} layer needs masks")
    expected = spec.s * (spec.k if masks.per_primary else 1)
    if masks.n_masks != expected or masks.bits_per_mask != spec.d * spec.d * spec.c:
        raise ShapeError(
            f"mask set ({masks.kind}, {masks.n_masks} masks of {masks.bits_per_mask} bits)"
            f" does not fit spec (k={spec.k}, s={spec.s}, d={spec.d}, c={spec.c})"
        )
    return np.arange(spec.n_secondary) % masks.n_masks


def secondary_matrix(bank: FilterBank, masks: MaskSet | None, spec: LayerSpec) -> np.ndarray:
    """Explicit (d*d*c, n) matrix of masked secondary filters, primary-major."""
    fmat = bank.filter_matrix()
    if spec.variant == "standard":
        return np.ascontiguousarray(fmat)
    cols = mask_columns(masks, spec)
    return np.repeat(fmat, spec.s, axis=1) * masks.dense(fmat.dtype)[:, cols]


def forward_patches(
    pm: PatchMatrix, bank: FilterBank, masks: MaskSet | None, spec: LayerSpec
) -> np.ndarray:
    """Forward pass over an :func:`im2col` patch matrix of an image or a batch.

    Output ``pm.out_shape + (n,)``, primary-major and C-contiguous: the
    masked-filter matrix through :func:`convref.matmul_conv`, plus the
    biases, added to each map's contiguous row in place.  Each map is
    reduced in the order :func:`convref.conv_reference` uses on the same
    patch columns.
    """
    biases = bank.biases if spec.has_biases else None
    if biases is not None and len(biases) != spec.n_secondary:
        raise ShapeError(f"expected {spec.n_secondary} biases, got {len(biases)}")
    maps = convref.matmul_conv(pm, secondary_matrix(bank, masks, spec)).T
    if biases is not None:
        maps += biases[:, None]
    return np.ascontiguousarray(maps.T).reshape(pm.out_shape + (spec.n_secondary,))


def bank_forward(
    x: np.ndarray, bank: FilterBank, masks: MaskSet | None, spec: LayerSpec
) -> np.ndarray:
    """Forward pass for any variant; output (..., H', W', n), primary-major.

    ``x`` is one ``(H, W, c)`` image or a ``(B, H, W, c)`` batch.
    """
    return forward_patches(im2col(x, spec.d, spec.stride, spec.padding), bank, masks, spec)


def naive_sum_forward(
    x: np.ndarray, f: np.ndarray, bias: float = 0.0, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Summed-scale baseline: add all pyramid responses into one map.

    Collapses to a single convolution with the pyramid-weighted filter,
    which is why it is a baseline and not a useful variant.
    """
    f = np.atleast_3d(np.asarray(f))
    d, c = f.shape[0], f.shape[2]
    spec = LayerSpec("spatial", d=d, c=c, k=1, stride=stride, padding=padding)
    channels = bank_forward(
        x, FilterBank(f[None], np.zeros(spec.s, dtype=f.dtype)), spatial_masks(d, c), spec
    )
    return np.add.reduce(channels, axis=2) + bias


@dataclass
class BankGrads:
    """Backward-pass results for one layer."""

    filters: np.ndarray
    biases: np.ndarray | None
    masks: np.ndarray | None  # real-relaxed, (d*d*c, n_mask_columns)
    x: np.ndarray | None  # None when the input gradient was not asked for
    secondary: np.ndarray = field(repr=False, default=None)  # (d*d*c, n)


def grads_from_secondary(
    ghat: np.ndarray, bank: FilterBank, masks: MaskSet | None, spec: LayerSpec
) -> tuple[np.ndarray, np.ndarray | None]:
    """Map per-secondary gradients onto primaries and real-relaxed masks.

    Primary i accumulates its secondaries' gradients through the masks,
    mask by mask; mask columns accumulate through the filters, primary by
    primary when shared, single-term when separate.  Each sum starts from
    zero and runs in that order.  The spatial variant's filter gradient
    is divided by s, matching its forward reuse of the primary at every
    scale.
    """
    fmat = bank.filter_matrix()
    if spec.variant == "standard":
        return ghat.copy().T.reshape(bank.filters.shape), None
    v, k, s = fmat.shape[0], spec.k, spec.s
    dense = masks.dense(fmat.dtype)
    cols = mask_columns(masks, spec)
    through_masks = (ghat * dense[:, cols]).reshape(v, k, s)
    grad_f = np.zeros((v, k), dtype=fmat.dtype)
    for j in range(s):
        grad_f += through_masks[:, :, j]
    if spec.variant == "spatial":
        grad_f /= s
    grad_m = None
    if spec.variant == "learnable":
        groups = masks.n_masks // s
        through_filters = (ghat * np.repeat(fmat, s, axis=1)).reshape(v, k, s)
        grad_m = np.zeros((v, groups, s), dtype=dense.dtype)
        for start in range(0, k, groups):
            grad_m += through_filters[:, start : start + groups]
        grad_m = grad_m.reshape(v, -1)
    return grad_f.T.reshape(bank.filters.shape), grad_m


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
    read when the forward's ``patches`` are passed.  Filter, mask and bias
    gradients sum over the batch; the input gradient has ``x``'s shape,
    or is ``None`` with ``input_grad=False``, which skips its products
    and scatter.  Both contractions are numpy's C ``einsum`` without
    ``optimize``: single-threaded, in an order fixed by the shapes, so the
    bits never depend on a BLAS thread count.
    """
    if patches is None:
        patches = im2col(x, spec.d, spec.stride, spec.padding)
    n = spec.n_secondary
    out_shape = patches.out_shape + (n,)
    if grad_y.shape != out_shape:
        raise ShapeError(f"grad_y shape {grad_y.shape} != output shape {out_shape}")
    grad_flat = grad_y.reshape(-1, n)
    # (n, l) rows keep both contractions' inner loops on contiguous memory
    grad_T = np.ascontiguousarray(grad_flat.T)
    ghat = np.einsum("vl,nl->vn", patches.cols, grad_T)
    grad_f, grad_m = grads_from_secondary(ghat, bank, masks, spec)

    grad_b = None
    if spec.has_biases and bank.biases is not None:
        grad_b = np.add.reduce(grad_flat, axis=0)

    grad_x = None
    if input_grad:
        fhat = secondary_matrix(bank, masks, spec)
        grad_cols = np.einsum("vn,nl->vl", fhat, grad_T)
        grad_x = convref.col2im(grad_cols.astype(patches.cols.dtype, copy=False), patches)
        if spec.variant == "spatial":
            grad_x = grad_x / spec.s
    return BankGrads(grad_f, grad_b, grad_m, grad_x, secondary=ghat)
