"""The cached-product scheme: multiply once per primary, reduce per mask.

Per patch, every secondary filter of primary f_i needs the same
elementwise products vec(patch) * vec(f_i).  The scheme computes them
once (d*d*c fp32 MULs per primary) and reduces the cached vector under
each binary mask, which costs additions and 1-bit mask operations only.
Pricing a mask op at 1/32 of an fp32 MUL gives the combined total

    combined_mul = mul_fp32 + mask_ops / 32
                 = d*d*c * H' * W' * n * (1/s + 1/32).

cached_forward tallies these operations for a call and returns the
output of the library's one forward kernel, which matches the reference
convolution exactly: masked entries stay in place as exact zeros under
the same fixed reduction order.
"""

import numpy as np

from maskconv.convref import conv_reference
from maskconv.fastinfer import cached_forward, masks_for_spec, predict_counts
from maskconv.layers import LayerSpec, random_bank

rng = np.random.default_rng(2)

print("=== exactness ===")
spec = LayerSpec("learnable", d=3, c=16, k=2, s=4, strategy="separate")
bank = random_bank(spec, seed=0)
bank.biases = rng.normal(size=spec.n_secondary)
masks = masks_for_spec(spec, seed=0)
x = rng.normal(size=(10, 10, 16))
y_fast, counts = cached_forward(x, bank, masks, spec)
# separate masks: one mask column per secondary, primary-major
fhat = np.repeat(bank.filter_matrix(), spec.s, axis=1) * masks.dense()
y_ref = np.stack(
    [conv_reference(x, fhat[:, j].reshape(3, 3, 16), bias=bank.biases[j])
     for j in range(spec.n_secondary)],
    axis=2,
)
print(f"{spec.k} primaries x {spec.s} masks on 10x10x16 input:"
      f" max |cached_forward - conv_reference| = {np.max(np.abs(y_fast - y_ref))}")

print("\n=== measured operation counts ===")
v, l, n = 3 * 3 * 16, 8 * 8, spec.n_secondary
print(f"mul_fp32  {counts.mul_fp32:>10,} (= d*d*c * H'W' * k = {v * l * spec.k:,})")
print(f"mask_ops  {counts.mask_ops:>10,} (= d*d*c * H'W' * n = {v * l * n:,})")
print(f"add_fp32  {counts.add_fp32:>10,} (mask-selected entries only)")
print(f"combined  {counts.combined_mul:>12,.1f} vs standard conv {v * l * n:,}")

print("\n=== the multiplication-reduction curve ===")
n = 64
print(f"{'s':>3} {'mul_fp32':>12} {'combined':>12} {'vs standard':>12}")
standard = predict_counts(LayerSpec("standard", d=3, c=16, k=n), 8, 8)
for s in (1, 2, 4, 8, 16, 32):
    spec = LayerSpec("learnable", d=3, c=16, k=n // s, s=s, strategy="separate")
    counts = predict_counts(spec, 8, 8)
    print(
        f"{s:>3} {counts.mul_fp32:>12,} {counts.combined_mul:>12,.0f}"
        f" {counts.combined_mul / standard.combined_mul:>11.4f}x"
    )
print("at s = 32 the fp32 multiplications drop 32x; the combined cost"
      " settles at 1/32 + 1/32 = 1/16 of standard convolution")
