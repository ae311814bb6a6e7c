"""Learnable binary masks: straight-through training and the regularizer.

The mask bits are the whole mask state.  A fresh learnable layer starts
with every bit on; each step moves the bits against the mask gradient,
which reaches them unchanged (straight-through), and thresholds at zero:
M <- (M - lr * grad) > 0.  An orthogonality penalty pushes each primary
filter's masks apart.  The update rule is asymmetric by construction: a
set bit clears only when lr * grad >= 1 in one step, while a cleared bit
sets on any negative gradient.  Flip rates are therefore worth watching
during training.
"""

import numpy as np

from maskconv.experiments import diversity_comparison, diversity_trial
from maskconv.layers import LayerSpec
from maskconv.masks import agent_update, gram_offdiagonal, ortho_grad, ortho_loss
from maskconv.network import MaskedConv

print("=== the straight-through update rule ===")
conv = MaskedConv.init(LayerSpec("learnable", d=3, c=1, k=1, s=2, strategy="shared"), seed=0)
masks = conv.masks
print(f"a fresh learnable layer: every initial bit is on -> density {masks.dense().mean():.0%}")
grad = np.zeros((9, 2))
grad[0, 0] = 12.0   # lr * grad >= 1 clears the bit
grad[1, 0] = 0.5    # below the threshold: bit survives
new_masks = agent_update(masks, grad, lr=0.1)
print(f"after one step at lr=0.1 with grads (12.0, 0.5, 0...): bits ->"
      f" {new_masks.dense()[:2, 0].astype(int)} (only the >=1/lr entry flips),"
      f" {new_masks.flip_count(masks)} flip")

print("\n=== the orthogonality penalty ===")
dense_pair = np.ones((9, 2))
print(f"two identical all-ones masks: loss {ortho_loss(dense_pair):.2f},"
      f" mean |off-diag gram| {gram_offdiagonal(dense_pair):.2f}")
half = np.zeros((8, 2))
half[:4, 0] = half[4:, 1] = 1
print(f"two disjoint half masks:     loss {ortho_loss(half):.2f},"
      f" mean |off-diag gram| {gram_offdiagonal(half):.2f}")
print(f"gradient at all-ones masks pushes every bit down: "
      f"{ortho_grad(dense_pair)[0]}")

print("\n=== effect of the regularizer on learned masks ===")
print("teacher-student regression, identical seeds, lam = 0 vs lam = 0.1:")
for pair in diversity_comparison(n_pairs=3, base_seed=0):
    marker = "less correlated" if pair["win"] else "tied"
    print(
        f"  seed {pair['seed']}: |gram| {pair['gram_lam0']:.3f} (lam 0) ->"
        f" {pair['gram_reg']:.3f} (lam 0.1)  [{marker}]"
    )

trial = diversity_trial(0, 0.1)
print(f"\nregularized run detail: final density {trial['density']:.2f},"
      f" fit loss {trial['loss']:.3f}, cumulative flip rate {trial['flips']:.2f}")
