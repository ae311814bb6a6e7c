"""Spatial pyramid masks: one stored filter, a stack of receptive fields.

A d x d filter spawns ceil(d/2) secondary filters by keeping nested
centered squares: the full filter, the filter minus its outermost ring,
and so on down to the center.  All scales run at the same stride and
padding, so their maps stay aligned and each output pixel gets a
multi-scale descriptor at the storage cost of one filter.
"""

import numpy as np

from maskconv.convref import conv_reference
from maskconv.layers import FilterBank, LayerSpec, bank_forward, naive_sum_forward
from maskconv.masks import spatial_masks

rng = np.random.default_rng(0)

print("=== nested masks for a 5x5 filter ===")
masks = spatial_masks(d=5, c=1)
print(f"scales: {masks.s}, ones per scale: {[int(v) for v in masks.ones_counts()]}")
for j in range(masks.s):
    grid = masks.dense()[:, j].reshape(5, 5)
    print(f"\nscale {j + 1}:")
    print("\n".join("  " + " ".join("#" if v else "." for v in row) for row in grid))

print("\n=== multi-scale forward pass ===")
x = rng.normal(size=(8, 8, 1))
f = rng.normal(size=(5, 5, 1))
spec = LayerSpec("spatial", d=5, c=1, k=1, padding=2)
y = bank_forward(x, FilterBank(f[None], np.zeros(spec.s)), masks, spec)
print(f"input 8x8x1, one 5x5 primary filter -> output {y.shape}")
print("the three channels are convolutions with the three masked filters:")
for j in range(3):
    fhat = (f.reshape(-1) * masks.dense()[:, j]).reshape(5, 5, 1)
    ref = conv_reference(x, fhat, padding=2)
    print(f"  scale {j + 1}: max |channel - conv(x, mask*f)| = {np.max(np.abs(y[:, :, j] - ref))}")

print("\n=== why summing the scales is not a variant ===")
# adding the per-scale maps collapses to a single convolution with a
# fixed weight pyramid, so the sum cannot add information
y_sum = naive_sum_forward(x, f, bias=0.0, stride=1, padding=2)
pyramid = masks.dense().sum(axis=1).reshape(5, 5, 1)
collapsed = conv_reference(x, pyramid * f, padding=2)
print(f"pyramid weights (center-heavy):\n{pyramid[:, :, 0]}")
print(f"max |sum-of-scales - collapsed conv| = {np.max(np.abs(y_sum - collapsed)):.2e}")
