"""Operation accounting for the cached-product scheme.

The scheme exploits that every secondary filter of primary ``f_i`` reads
the same elementwise products: per patch it computes
``cache_i = vec(patch) * vec(f_i)`` once (``d*d*c`` fp32 multiplications
per primary), then reduces the cache under each binary mask with no
further multiplication.  Cost model per patch:

* fp32 MUL:  ``d*d*c * k``  (cache construction only);
* fp32 ADD:  one per mask-selected cache entry;
* MASK:      one 1-bit select per cache entry per mask, charged only for
  learned or random bit masks.  Spatial pyramids and channel windows are
  compile-time index ranges, so they cost no mask ops (and need no stored
  mask bits).

A MASK op is priced at 1/32 of an fp32 MUL in the combined total:
``combined_mul = mul_fp32 + mask_ops / 32``.

:func:`cached_forward` tallies these counts for a call; its output
comes from the package's one forward kernel,
:func:`maskconv.layers.forward_patches`, which runs the rows each mask
keeps (:class:`maskconv.layers.MaskLayout`).  For all but separate and
random-fixed bits, which it runs as a dense masked-filter matrix, the
ADD tally is the multiply-adds it ran on finite inputs, less those of
masks that repeat an earlier one of their group.  Tallies never read input
values: when an inf or NaN sends the kernel down its full view, the ADDs
are still the scheme's, so the exact closed forms of
:func:`predict_counts` (all but bit-mask ADDs) hold on every input.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace

import numpy as np

from maskconv.layers import FilterBank, LayerSpec, bank_forward, mask_layout
from maskconv.masks import MaskSet, random_masks


@dataclass
class OpCounts:
    """Operation and storage tallies for a layer or network."""

    mul_fp32: int = 0
    add_fp32: int = 0
    mask_ops: int = 0
    param_values_fp32: int = 0
    mask_bits: int = 0

    @property
    def combined_mul(self) -> float:
        return self.mul_fp32 + self.mask_ops / 32.0

    @property
    def param_equiv32(self) -> float:
        """Parameter storage in 32-bit value equivalents (masks at 1/32)."""
        return self.param_values_fp32 + self.mask_bits / 32.0

    @property
    def memory_bytes(self) -> int:
        return 4 * self.param_values_fp32 + (self.mask_bits + 7) // 8

    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(*(a + b for a, b in zip(astuple(self), astuple(other))))

    def columns(self) -> list[tuple[str, float]]:
        """``(name, value)`` of every report column, in record and table order."""
        return [
            ("params", self.param_equiv32),
            ("mul_fp32", self.mul_fp32),
            ("mask_ops", self.mask_ops),
            ("combined_mul", self.combined_mul),
            ("add_fp32", self.add_fp32),
            ("memory_bytes", self.memory_bytes),
        ]

    def record(self, layer: str = "total") -> str:
        """Machine-readable line: space-separated key=value fields, floats at 2 decimals."""
        fields = (f"{k}={v:.2f}" if isinstance(v, float) else f"{k}={v}" for k, v in self.columns())
        return " ".join([f"layer={layer}", *fields])


def cached_forward(
    x: np.ndarray,
    bank: FilterBank,
    masks: MaskSet | None,
    spec: LayerSpec,
) -> tuple[np.ndarray, OpCounts]:
    """Forward pass plus the tallies of the cached-product scheme.

    ``x`` is one ``(H, W, c)`` image or a ``(B, H, W, c)`` batch.  Returns
    :func:`maskconv.layers.bank_forward`'s output, bit for bit and
    C-contiguous, with the :class:`OpCounts` that the module docstring's
    cost model gives this call.
    """
    y = bank_forward(x, bank, masks, spec)
    v, l = spec.d * spec.d * spec.c, y.size // spec.n_secondary
    counts = OpCounts(mul_fp32=v * l * spec.k, param_values_fp32=v * spec.k)
    layout = mask_layout(spec, masks)  # each secondary's kept rows, the scheme's ADDs
    counts.add_fp32 = int(layout.kept[layout.columns].sum()) * l
    if spec.variant == "learnable":  # bit masks cost mask ops and storage besides their ADDs
        counts.mask_ops = v * l * spec.n_secondary
        counts.mask_bits = v * masks.n_masks
    return y, counts


def predict_counts(spec: LayerSpec, h_out: int, w_out: int) -> OpCounts:
    """Closed-form operation and storage counts for one layer.

    MUL and MASK counts are exact.  The ADD count is exact for variants
    with deterministic masks (densities known from the construction) and
    an expectation of half-dense masks otherwise: learned and random mask
    bits average 0.5, so the ADD total is reported as
    ``0.5 * d*d*c * H' * W' * n`` and verified statistically.
    """
    v = spec.d * spec.d * spec.c
    l = h_out * w_out
    n = spec.n_secondary
    counts = OpCounts(param_values_fp32=v * spec.k)
    counts.mul_fp32 = v * l * spec.k
    if spec.variant == "standard":
        counts.add_fp32 = v * l * n
    elif spec.variant == "spatial":
        per_filter = sum(
            (spec.d + 2 - 2 * i) ** 2 * spec.c for i in range(1, spec.s + 1)
        )
        counts.add_fp32 = l * spec.k * per_filter
    elif spec.variant == "channel":
        counts.add_fp32 = l * spec.k * spec.s * spec.d * spec.d * spec.c_hat
    else:  # learnable / random bit masks
        counts.mask_ops = v * l * n
        counts.add_fp32 = round(0.5 * v * l * n)
        counts.mask_bits = v * spec.s * spec.mask_groups
    return counts


def masks_for_spec(spec: LayerSpec, seed: int = 0) -> MaskSet | None:
    """Construct masks matching a spec: structural, or fair-coin bits of its kind."""
    if spec.variant != "learnable":
        return spec.structural_masks()
    bits = random_masks(spec.mask_groups, spec.s, spec.d, spec.c, seed)
    return replace(bits, kind=spec.mask_kind)
