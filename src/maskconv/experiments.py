"""Reusable desk-scale experiments.

The diversity trial isolates the orthogonality regularizer's effect on
learned masks: a masked-filter layer regresses onto targets produced by
an identically-shaped teacher (so an exact fit exists), inputs are scaled
so the quadratic's curvature is one, and the learning rate decays in
stages so late training reaches the regime where tiny task gradients
compete with the regularizer.  Without the regularizer, cleared mask bits
resurrect on any negative gradient jitter and the masks drift dense and
correlated; with it, the resurrection is suppressed and the masks stay
decorrelated.  Masks start at random bits so both flip directions are
live from the start (a fresh layer starts all ones, where a set bit only
clears when ``lr * grad >= 1``).
"""

from __future__ import annotations

import numpy as np

from maskconv.convref import im2col
from maskconv.layers import LayerSpec
from maskconv.masks import from_dense, gram_offdiagonal
from maskconv.network import Flatten, MaskedConv, Network
from maskconv.training import TrainConfig, train_step

STAGES = ((0.1, 500), (0.03, 500), (0.01, 500), (0.003, 500))


def _masked_toy_model(seed: int, bit_seed: int) -> Network:
    spec = LayerSpec("learnable", d=3, c=1, k=2, s=2, strategy="separate")
    conv = MaskedConv.init(spec, seed, np.float64)
    bits = np.random.default_rng(bit_seed).integers(0, 2, size=(9, 4))
    conv.masks = from_dense(bits, "learned-separate", 3, 1, 2, k=2)
    return Network([conv, Flatten()])


def diversity_trial(seed: int, lam: float) -> dict:
    """Train the toy at one regularizer weight; returns mask statistics."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 6, 6, 1))
    cols = im2col(x, 3).cols
    top_eig = float(np.linalg.eigvalsh(cols @ cols.T / x.shape[0]).max())
    x = x / np.sqrt(top_eig)

    teacher = _masked_toy_model(seed + 999, seed + 555)
    targets = teacher.forward(x)
    model = _masked_toy_model(seed, seed + 111)
    conv = model.conv_layers()[0]

    loss = float("nan")
    flips = 0.0
    for lr, steps in STAGES:
        config = TrainConfig(
            lr=lr, lam=lam, epochs=1, batch=x.shape[0], seed=seed,
            loss="mean-squared-error",
        )
        for _ in range(steps):
            loss, metrics = train_step((x, targets), model, config)
            flips += metrics["flip_rate"]
    return {
        "gram_offdiag": gram_offdiagonal(conv.masks),
        "density": float(conv.masks.dense().mean()),
        "loss": loss,
        "flips": flips,
    }


def diversity_comparison(n_pairs: int = 5, base_seed: int = 0, lam: float = 0.1):
    """Paired trials at lam vs 0; returns per-pair gram values and wins."""
    pairs = []
    for i in range(n_pairs):
        seed = base_seed + i
        without = diversity_trial(seed, 0.0)
        with_reg = diversity_trial(seed, lam)
        pairs.append(
            {
                "seed": seed,
                "gram_lam0": without["gram_offdiag"],
                "gram_reg": with_reg["gram_offdiag"],
                "win": with_reg["gram_offdiag"] < without["gram_offdiag"],
            }
        )
    return pairs
