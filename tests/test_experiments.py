import numpy as np
import pytest

from maskconv.experiments import diversity_comparison, diversity_trial
from maskconv.masks import from_dense, gram_offdiagonal, spatial_masks


def test_gram_offdiagonal_identical_masks_is_one():
    assert gram_offdiagonal(np.ones((18, 2))) == pytest.approx(1.0)


def test_gram_offdiagonal_disjoint_masks_is_zero():
    m = np.zeros((16, 2))
    m[:8, 0] = 1
    m[8:, 1] = 1
    assert gram_offdiagonal(m) == pytest.approx(0.0)


def test_gram_offdiagonal_single_mask_is_zero():
    assert gram_offdiagonal(np.ones((9, 1))) == 0.0


def test_gram_offdiagonal_blocks_average_per_primary():
    # separate set: block one identical pair (1.0), block two disjoint (0.0)
    dense = np.zeros((16, 4))
    dense[:, 0] = dense[:, 1] = 1
    dense[:8, 2] = 1
    dense[8:, 3] = 1
    ms = from_dense(dense, "learned-separate", 2, 4, 2, k=2)
    assert gram_offdiagonal(ms) == pytest.approx(0.5)


def test_gram_offdiagonal_spatial_pyramid_value():
    # nested d=3 masks: overlap = inner ones count -> gram offdiag = 1/9
    ms = spatial_masks(3, 1)
    assert gram_offdiagonal(ms) == pytest.approx(1 / 9)


def test_diversity_trial_deterministic():
    a = diversity_trial(3, 0.1)
    b = diversity_trial(3, 0.1)
    assert a == b


def test_diversity_regularizer_never_hurts_on_paired_seeds():
    # weaker, invariant-level form of the acceptance criterion
    pairs = diversity_comparison(n_pairs=3, base_seed=10)
    for p in pairs:
        assert p["gram_reg"] <= p["gram_lam0"] + 1e-12, p
