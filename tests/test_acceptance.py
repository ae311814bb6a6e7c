"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v``.  The training-based
criteria (6 and 7) dominate the runtime; everything else finishes in
seconds.  The per-criterion verdict lines print outside pytest's capture
so they always appear in the terminal.
"""

import numpy as np
import pytest

from maskconv.accounting import load_netspec, network_counts, shipped_netspec_path
from maskconv.checkpoint import load_checkpoint, save_checkpoint
from maskconv.convref import conv_reference
from maskconv.fastinfer import cached_forward, masks_for_spec, predict_counts
from maskconv.layers import (
    LayerSpec,
    bank_backward,
    bank_forward,
    naive_sum_forward,
    random_bank,
)
from maskconv.masks import (
    MaskSet,
    from_dense,
    ortho_grad,
    ortho_loss,
    spatial_masks,
)
from maskconv.network import build_small_cnn
from maskconv.training import TrainConfig, evaluate, fit

from oracles import (
    finite_difference,
    quadratic_loss_brute,
    relative_error,
)


@pytest.fixture
def announce(capsys):
    def emit(line: str) -> None:
        with capsys.disabled():
            print(line.strip())
    return emit


def _random_spec(rng) -> LayerSpec:
    variant = rng.choice(["spatial", "channel", "learnable", "learnable"])
    d = int(rng.choice([1, 3, 4, 5]))
    c = int(rng.integers(1, 5))
    k = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, 2))
    if variant == "spatial":
        if d == 1:
            d = 3
        return LayerSpec("spatial", d=d, c=c, k=k, stride=stride, padding=padding)
    if variant == "channel":
        c = int(rng.choice([4, 6, 8]))
        c_hat = c // 2
        g = int(rng.choice([x for x in (1, 2, c // 2) if (c - c_hat) % x == 0]))
        return LayerSpec("channel", d=d, c=c, k=k, c_hat=c_hat, g=g, stride=stride, padding=padding)
    strategy = str(rng.choice(["shared", "separate", "random-fixed"]))
    s = int(rng.integers(1, 4))
    return LayerSpec("learnable", d=d, c=c, k=k, s=s, strategy=strategy, stride=stride, padding=padding)


def _masks_with_random_bits(spec: LayerSpec, rng) -> MaskSet | None:
    if spec.variant in ("spatial", "channel"):
        return spec.structural_masks()
    return masks_for_spec(spec, seed=int(rng.integers(0, 2**31)))


def test_criterion_1_oracle_equivalence(announce):
    """Every forward path equals conv_reference on the masked filters."""
    rng = np.random.default_rng(1)
    instances = 0
    checked_paths = 0
    while instances < 200:
        spec = _random_spec(rng)
        bank = random_bank(spec, seed=int(rng.integers(0, 2**31)))
        if spec.has_biases:
            bank.biases = rng.normal(size=spec.n_secondary)
        masks = _masks_with_random_bits(spec, rng)
        h = int(rng.integers(spec.d, spec.d + 5))
        x = rng.normal(size=(h, h + 1, spec.c))
        y = bank_forward(x, bank, masks, spec)
        y_cached, _ = cached_forward(x, bank, masks, spec)
        dense = masks.dense()
        for i in range(spec.k):
            for j in range(spec.s):
                col = masks.column_index(i, j)
                fhat = (bank.filters[i].reshape(-1) * dense[:, col]).reshape(
                    spec.d, spec.d, spec.c
                )
                bias = bank.biases[i * spec.s + j] if spec.has_biases else 0.0
                ref = conv_reference(x, fhat, spec.stride, spec.padding, bias)
                assert np.max(np.abs(y[:, :, i * spec.s + j] - ref)) == 0.0
                assert np.max(np.abs(y_cached[:, :, i * spec.s + j] - ref)) == 0.0
                checked_paths += 1
        instances += 1
    announce(f"\nACCEPTANCE 1 PASS: {instances} instances, {checked_paths} masked-filter"
        " channels, forward and cached kernels exact at 64-bit"
    )


def test_criterion_2_sum_baseline_collapse(announce):
    """The summed-scale baseline equals one conv with the pyramid-weight mask."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        d = int(rng.choice([3, 4, 5, 7]))
        c = int(rng.integers(1, 4))
        h = int(rng.integers(d, d + 6))
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 3))
        x = rng.normal(size=(h, h, c))
        f = rng.normal(size=(d, d, c))
        b = float(rng.normal())
        y = naive_sum_forward(x, f, b, stride, padding)
        weight = spatial_masks(d, c).dense().sum(axis=1).reshape(d, d, c)
        collapsed = conv_reference(x, weight * f, stride, padding, b)
        worst = max(worst, float(np.max(np.abs(y - collapsed))))
    assert worst < 1e-10
    announce(f"\nACCEPTANCE 2 PASS: 50 instances, max |sum-baseline - collapsed conv| = {worst:.2e}")


def test_criterion_3_gradient_suite(announce):
    """Analytic gradients match central finite differences, rel err < 1e-4."""
    rng = np.random.default_rng(3)
    worst = {"filters": 0.0, "masks": 0.0, "x": 0.0, "ortho": 0.0}
    for trial in range(20):
        strategy = ("shared", "separate")[trial % 2]
        spec = LayerSpec(
            "learnable", d=3, c=2, k=2, s=2, strategy=strategy,
            padding=int(rng.integers(0, 2)),
        )
        bank = random_bank(spec, seed=trial)
        bank.biases = rng.normal(size=spec.n_secondary)
        groups = 1 if strategy == "shared" else spec.k
        kind = "learned-shared" if strategy == "shared" else "learned-separate"
        dense = rng.integers(0, 2, size=(18, spec.s * groups)).astype(np.float64)
        masks = from_dense(dense, kind, 3, 2, spec.s, k=groups)
        x = rng.normal(size=(4, 4, 2))
        h_out = 4 + 2 * spec.padding - 2
        targets = rng.normal(size=(h_out, h_out, spec.n_secondary))

        y = bank_forward(x, bank, masks, spec)
        grads = bank_backward(y - targets, x, bank, masks, spec)

        def loss_f(filters):
            return quadratic_loss_brute(
                x, filters, dense, spec.s, targets, 1, spec.padding, bank.biases
            )

        worst["filters"] = max(
            worst["filters"],
            relative_error(grads.filters, finite_difference(loss_f, bank.filters.copy())),
        )

        def loss_m(cols):
            return quadratic_loss_brute(
                x, bank.filters, cols, spec.s, targets, 1, spec.padding, bank.biases
            )

        worst["masks"] = max(
            worst["masks"],
            relative_error(grads.masks, finite_difference(loss_m, dense.copy())),
        )

        def loss_x(xx):
            return quadratic_loss_brute(
                xx, bank.filters, dense, spec.s, targets, 1, spec.padding, bank.biases
            )

        worst["x"] = max(
            worst["x"], relative_error(grads.x, finite_difference(loss_x, x.copy()))
        )

        relaxed = rng.random(size=(12, 3))
        worst["ortho"] = max(
            worst["ortho"],
            relative_error(
                ortho_grad(relaxed), finite_difference(lambda m: ortho_loss(m), relaxed.copy())
            ),
        )
    assert all(err < 1e-4 for err in worst.values()), worst
    announce("\nACCEPTANCE 3 PASS: 20 instances per gradient, worst rel err "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    )


def test_criterion_4_op_count_identities(announce):
    """Measured MUL/MASK tallies equal the closed forms; ADDs near half density."""
    rng = np.random.default_rng(4)
    sampled = 0
    add_rel_errs = []
    while sampled < 10:
        k = int(rng.integers(1, 4))
        s = int(rng.integers(1, 5))
        d = int(rng.choice([3, 5]))
        c = int(rng.choice([8, 16]))
        strategy = str(rng.choice(["shared", "separate", "random-fixed"]))
        spec = LayerSpec("learnable", d=d, c=c, k=k, s=s, strategy=strategy)
        bank = random_bank(spec, seed=sampled)
        masks = masks_for_spec(spec, seed=sampled)
        hw = int(rng.integers(d + 3, d + 8))
        x = rng.normal(size=(hw, hw, c))
        y, measured = cached_forward(x, bank, masks, spec)
        v = d * d * c
        l = y.shape[0] * y.shape[1]
        n = spec.n_secondary
        assert measured.mul_fp32 == v * l * k
        assert measured.mask_ops == v * l * n
        predicted = predict_counts(spec, y.shape[0], y.shape[1])
        assert predicted.mul_fp32 == measured.mul_fp32
        assert predicted.mask_ops == measured.mask_ops
        assert measured.combined_mul == v * l * k + (v * l * n) / 32.0
        assert predicted.combined_mul == pytest.approx(v * l * n * (1 / s + 1 / 32))
        rel = abs(measured.add_fp32 - 0.5 * v * l * n) / (0.5 * v * l * n)
        add_rel_errs.append(rel)
        assert rel <= 0.10
        sampled += 1
    announce(f"\nACCEPTANCE 4 PASS: 10 specs, MUL/MASK identities exact,"
        f" worst ADD deviation {max(add_rel_errs):.1%} (bound 10%)"
    )


def test_criterion_5_table_reproduction(announce):
    """Shipped shape lists reproduce the published parameter/MUL columns."""
    rows = [
        ("resnet56", 8.5e5, 1.3e8),
        ("resnet56_spatial", 4.3e5, 0.6e8),
        ("resnet50_sep4", 0.9e7, 1.1e9),
    ]
    summary = []
    for name, want_params, want_mul in rows:
        counts = network_counts(load_netspec(shipped_netspec_path(name)))
        p_err = abs(counts.param_equiv32 - want_params) / want_params
        m_err = abs(counts.combined_mul - want_mul) / want_mul
        assert p_err < 0.10, (name, counts.param_equiv32, want_params)
        assert m_err < 0.10, (name, counts.combined_mul, want_mul)
        summary.append(f"{name}: params {p_err:.1%} off, mul {m_err:.1%} off")
    base = network_counts(load_netspec(shipped_netspec_path("resnet50")))
    assert abs(base.param_equiv32 - 2.6e7) / 2.6e7 < 0.10
    assert abs(base.combined_mul - 4.1e9) / 4.1e9 < 0.10
    announce("\nACCEPTANCE 5 PASS: " + "; ".join(summary))


def test_criterion_6_desk_scale_training_parity(tmp_path, announce):
    """Separate learned masks (s=2) track the standard control within 2 points.

    10k synthetic digit images through the IDX pipeline; equal feature-map
    counts; the masked model stores ~53% of the control's conv parameters.
    """
    import time

    from maskconv.datagen import write_dataset
    from maskconv.fastinfer import predict_counts as _pc
    from maskconv.idx import load_dataset_dir

    started = time.time()
    root = write_dataset(tmp_path / "digits", n_train=10_000, n_test=2_000, seed=0)
    train_x, train_y = load_dataset_dir(root, "train")
    test_x, test_y = load_dataset_dir(root, "test")

    stages = [(0.15, 6), (0.05, 4), (0.02, 2)]
    accuracy = {}
    models = {}
    for label, kwargs in [
        ("standard", dict(variant="standard")),
        ("separate-s2", dict(variant="learnable", strategy="separate", s=2)),
    ]:
        model = build_small_cnn(conv1_maps=8, conv2_maps=16, seed=7, **kwargs)
        for lr, epochs in stages:
            lam = 0.1 if label == "separate-s2" else 0.0
            fit(model, train_x, train_y, TrainConfig(lr=lr, lam=lam, epochs=epochs, batch=64, seed=7))
        accuracy[label] = evaluate(model, test_x, test_y)
        models[label] = model

    def conv_params(model):
        return sum(
            _pc(layer.spec, 1, 1).param_equiv32 for layer in model.conv_layers()
        )

    ratio = conv_params(models["separate-s2"]) / conv_params(models["standard"])
    gap = accuracy["standard"] - accuracy["separate-s2"]
    elapsed = time.time() - started
    assert ratio <= 0.55, f"conv parameter ratio {ratio:.4f} exceeds 55%"
    assert gap <= 0.02, f"accuracy gap {gap * 100:.2f} points exceeds 2.0"
    assert elapsed < 900, f"runtime {elapsed:.0f}s exceeds 15 minutes"
    announce(f"\nACCEPTANCE 6 PASS: standard {accuracy['standard']:.4f} vs separate-s2"
        f" {accuracy['separate-s2']:.4f} (gap {gap * 100:+.2f} pts, bound 2.0);"
        f" conv params ratio {ratio * 100:.1f}% (bound 55%); {elapsed:.0f}s"
    )


def test_criterion_7_regularizer_diversity(announce):
    """Masks trained with lam = 0.1 end less correlated than with lam = 0."""
    from maskconv.experiments import diversity_comparison

    pairs = diversity_comparison(n_pairs=5, base_seed=0, lam=0.1)
    wins = sum(p["win"] for p in pairs)
    assert wins >= 4, pairs
    detail = ", ".join(
        f"seed {p['seed']}: {p['gram_reg']:.3f} vs {p['gram_lam0']:.3f}" for p in pairs
    )
    announce(f"\nACCEPTANCE 7 PASS: regularized mean |Gram/d^2c| off-diagonal strictly"
        f" lower in {wins}/5 pairs ({detail})"
    )


def test_criterion_8_determinism_and_persistence(tmp_path, announce):
    """Same seed + determinism flag -> byte-identical checkpoints; bitwise round-trip."""
    rng = np.random.default_rng(8)
    images = rng.normal(0.5, 0.2, size=(96, 12, 12, 1)).astype(np.float32)
    labels = rng.integers(0, 10, size=96)
    paths = []
    for run in range(2):
        model = build_small_cnn(
            variant="learnable",
            strategy="separate",
            s=2,
            conv1_maps=4,
            conv2_maps=8,
            hidden=16,
            input_hw=12,
            seed=17,
        )
        config = TrainConfig(lr=0.1, lam=0.1, epochs=2, batch=32, seed=5)
        fit(model, images, labels, config)
        path = tmp_path / f"run{run}.ckpt"
        save_checkpoint(model, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    model = load_checkpoint(paths[0])
    x = rng.normal(size=(5, 12, 12, 1)).astype(np.float32)
    before = model.forward(x)
    save_checkpoint(model, tmp_path / "again.ckpt")
    after = load_checkpoint(tmp_path / "again.ckpt").forward(x)
    assert np.array_equal(before, after)
    announce("\nACCEPTANCE 8 PASS: paired runs byte-identical"
        f" ({paths[0].stat().st_size} bytes); save/load forward bitwise-equal"
    )
