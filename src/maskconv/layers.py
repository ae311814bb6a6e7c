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
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from maskconv import convref
from maskconv.convref import PatchMatrix, ShapeError, im2col
from maskconv.masks import MaskSet, channel_windows, spatial_masks

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


def secondary_matrix(bank: FilterBank, masks: MaskSet | None, spec: LayerSpec) -> np.ndarray:
    """Explicit (d*d*c, n) matrix of masked secondary filters, primary-major."""
    fmat = bank.filter_matrix()
    if spec.variant == "standard":
        return np.ascontiguousarray(fmat)
    if masks is None:
        raise ShapeError(f"{spec.variant} layer needs masks")
    expected = spec.s * (spec.k if masks.per_primary else 1)
    if masks.n_masks != expected or masks.bits_per_mask != spec.d * spec.d * spec.c:
        raise ShapeError(
            f"mask set ({masks.kind}, {masks.n_masks} masks of {masks.bits_per_mask} bits)"
            f" does not fit spec (k={spec.k}, s={spec.s}, d={spec.d}, c={spec.c})"
        )
    dense = masks.dense(fmat.dtype)
    out = np.empty((fmat.shape[0], spec.n_secondary), dtype=fmat.dtype)
    for i in range(spec.k):
        for j in range(spec.s):
            out[:, i * spec.s + j] = fmat[:, i] * dense[:, masks.column_index(i, j)]
    return out


def forward_patches(
    pm: PatchMatrix, bank: FilterBank, masks: MaskSet | None, spec: LayerSpec
) -> np.ndarray:
    """Forward pass over an :func:`im2col` patch matrix of an image or a batch.

    Output ``pm.out_shape + (n,)``, primary-major: the masked-filter
    matrix through :func:`convref.matmul_conv`, plus the biases.  Each
    map is reduced in the order :func:`convref.conv_reference` uses on
    the same patch columns.
    """
    biases = bank.biases if spec.has_biases else None
    if biases is not None and len(biases) != spec.n_secondary:
        raise ShapeError(f"expected {spec.n_secondary} biases, got {len(biases)}")
    y = convref.matmul_conv(pm, secondary_matrix(bank, masks, spec))
    if biases is not None:
        y += biases
    return y.reshape(pm.out_shape + (spec.n_secondary,))


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
    x: np.ndarray
    secondary: np.ndarray = field(repr=False, default=None)  # (d*d*c, n)


def _secondary_grads(cols: np.ndarray, grad_flat: np.ndarray) -> np.ndarray:
    """grad wrt each secondary filter: (d*d*c, n) from patches and dL/dy."""
    v, n = cols.shape[0], grad_flat.shape[1]
    out = np.empty((v, n), dtype=np.result_type(cols, grad_flat))
    for j in range(n):
        out[:, j] = np.add.reduce(cols * grad_flat[:, j][None, :], axis=1)
    return out


def grads_from_secondary(
    ghat: np.ndarray, bank: FilterBank, masks: MaskSet | None, spec: LayerSpec
) -> tuple[np.ndarray, np.ndarray | None]:
    """Map per-secondary gradients onto primaries and real-relaxed masks.

    Primary i accumulates its secondaries' gradients through the masks;
    mask columns accumulate through the filters (summed over primaries
    when shared, single-term when separate).  The spatial variant's
    filter gradient is divided by s, matching its forward reuse of the
    primary at every scale.
    """
    fmat = bank.filter_matrix()
    grad_f = np.zeros_like(fmat)
    grad_m = None
    if spec.variant == "standard":
        grad_f = ghat.copy()
    else:
        dense = masks.dense(fmat.dtype)
        if spec.variant == "learnable":
            grad_m = np.zeros_like(dense)
        for i in range(spec.k):
            for j in range(spec.s):
                col = masks.column_index(i, j)
                g = ghat[:, i * spec.s + j]
                grad_f[:, i] += g * dense[:, col]
                if grad_m is not None:
                    grad_m[:, col] += g * fmat[:, i]
        if spec.variant == "spatial":
            grad_f /= spec.s
    return grad_f.T.reshape(bank.filters.shape), grad_m


def bank_backward(
    grad_y: np.ndarray,
    x: np.ndarray | None,
    bank: FilterBank,
    masks: MaskSet | None,
    spec: LayerSpec,
    patches: PatchMatrix | None = None,
) -> BankGrads:
    """Analytic gradients for filters, masks, biases, and the input.

    ``x`` is an image or a batch, as in :func:`bank_forward`; it is not
    read when the forward's ``patches`` are passed.  Filter, mask and bias
    gradients sum over the batch; the input gradient has ``x``'s shape.
    """
    if patches is None:
        patches = im2col(x, spec.d, spec.stride, spec.padding)
    n = spec.n_secondary
    out_shape = patches.out_shape + (n,)
    if grad_y.shape != out_shape:
        raise ShapeError(f"grad_y shape {grad_y.shape} != output shape {out_shape}")
    grad_flat = grad_y.reshape(-1, n)
    ghat = _secondary_grads(patches.cols, grad_flat)
    grad_f, grad_m = grads_from_secondary(ghat, bank, masks, spec)

    grad_b = None
    if spec.has_biases and bank.biases is not None:
        grad_b = np.add.reduce(grad_flat, axis=0)

    fhat = secondary_matrix(bank, masks, spec)
    grad_cols = np.zeros_like(patches.cols)
    for j in range(n):
        grad_cols += fhat[:, j][:, None] * grad_flat[:, j][None, :]
    grad_x = convref.col2im(grad_cols, patches)
    if spec.variant == "spatial":
        grad_x = grad_x / spec.s
    return BankGrads(grad_f, grad_b, grad_m, grad_x, secondary=ghat)
