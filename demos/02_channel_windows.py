"""Channel windows: sliding a thin filter along the channel axis.

For 1x1-heavy architectures the spatial pyramid has nothing to mask, so
the channel variant slides a c_hat-channel window across the c input
channels with stride g, yielding (c - c_hat) / g + 1 feature maps per
stored filter.  With c - c_hat = g the filter count halves at equal
feature-map volume.
"""

import numpy as np

from maskconv.convref import conv_reference
from maskconv.layers import FilterBank, LayerSpec, bank_forward
from maskconv.masks import channel_windows

rng = np.random.default_rng(1)

print("=== window layout for c=16, c_hat=8, g=4 ===")
masks = channel_windows(d=1, c=16, c_hat=8, g=4)
for j in range(masks.s):
    chans = masks.dense()[:, j].astype(int)
    print(f"window {j}: " + "".join("#" if v else "." for v in chans))

print("\n=== halving the filter count (c - c_hat = g = 8) ===")
spec = LayerSpec("channel", d=3, c=16, k=1, c_hat=8, g=8)
x = rng.normal(size=(6, 6, 16))
f = rng.normal(size=(3, 3, 16))
y = bank_forward(x, FilterBank(f[None]), spec.structural_masks(), spec)
print(f"one primary filter -> {y.shape[2]} output maps of {y.shape[:2]}")
lo = conv_reference(x[:, :, :8], f[:, :, :8])
hi = conv_reference(x[:, :, 8:], f[:, :, 8:])
print(f"window 0 equals conv over channels 0..7:  max diff {np.max(np.abs(y[:, :, 0] - lo)):.2e}")
print(f"window 1 equals conv over channels 8..15: max diff {np.max(np.abs(y[:, :, 1] - hi)):.2e}")

print("\n=== degenerate case: full-width window is standard convolution ===")
full = LayerSpec("channel", d=3, c=16, k=1, c_hat=16, g=1)
y_full = bank_forward(x, FilterBank(f[None]), full.structural_masks(), full)
print(f"c_hat = c gives {y_full.shape[2]} map; equals plain conv:"
      f" {np.array_equal(y_full[:, :, 0], conv_reference(x, f))}")
