import hashlib
import struct

import numpy as np
import pytest

from maskconv.checkpoint import (
    MAGIC,
    VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from maskconv.convref import ShapeError
from maskconv.datagen import generate_digits
from maskconv.idx import load_dataset_dir, write_idx_images, write_idx_labels
from maskconv.layers import BankGrads, FilterBank, LayerSpec
from maskconv.masks import agent_update, from_dense, ortho_loss
from maskconv.network import (
    Dense,
    Flatten,
    MaskedConv,
    Network,
    ReLU,
    build_small_cnn,
)
from maskconv.training import (
    DataError,
    TrainConfig,
    TrainingDiverged,
    evaluate,
    fit,
    format_log_record,
    mean_squared_error,
    softmax_cross_entropy,
    train_step,
)


def toy_two_class(n=64, seed=0):
    """Linearly separable 8x8 images: bright top half vs bright bottom half."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    images = rng.normal(0, 0.1, size=(n, 8, 8, 1)).astype(np.float64)
    for i, y in enumerate(labels):
        if y == 0:
            images[i, :4] += 1.0
        else:
            images[i, 4:] += 1.0
    return images, labels


def tiny_spatial_net(seed=0, dtype=np.float64):
    spec = LayerSpec("spatial", d=3, c=1, k=2, padding=1, name="conv1")
    return Network(
        [
            MaskedConv.init(spec, seed, dtype),
            ReLU(),
            Flatten(),
            Dense.init(8 * 8 * 4, 2, seed + 1, dtype),
        ]
    )


# ------------------------------------------------------------------ losses


def test_cross_entropy_perfect_one_hot_is_zero():
    logits = np.full((4, 10), 0.0)
    labels = np.array([1, 5, 0, 9])
    logits[np.arange(4), labels] = 50.0
    loss, grad = softmax_cross_entropy(logits, labels)
    assert loss < 1e-12
    assert np.all(np.abs(grad) < 1e-12)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError, match="label out of range"):
        softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


def test_cross_entropy_gradient_matches_fd():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(3, 4))
    labels = np.array([0, 2, 3])
    _, grad = softmax_cross_entropy(logits, labels)
    step = 1e-6
    for i in range(3):
        for j in range(4):
            hi = logits.copy()
            hi[i, j] += step
            lo = logits.copy()
            lo[i, j] -= step
            fd = (softmax_cross_entropy(hi, labels)[0] - softmax_cross_entropy(lo, labels)[0]) / (2 * step)
            assert abs(fd - grad[i, j]) < 1e-6


def test_mse_loss_and_grad():
    preds = np.array([[1.0, 2.0], [3.0, 4.0]])
    targets = np.zeros((2, 2))
    loss, grad = mean_squared_error(preds, targets)
    assert loss == pytest.approx(0.5 * (1 + 4 + 9 + 16) / 2)
    assert np.array_equal(grad, preds / 2)


def two_learnable_layer_net():
    """build_small_cnn with both convs learnable-shared, s=2, on 12x12 inputs."""
    return build_small_cnn(
        "learnable", strategy="shared", s=2, conv1_maps=4, conv2_maps=8, hidden=16,
        n_classes=2, input_hw=12, seed=3, dtype=np.float64,
    )


def test_train_step_loss_is_task_loss_at_lambda_zero():
    images, labels = toy_two_class(16, seed=1)
    images = np.pad(images, ((0, 0), (2, 2), (2, 2), (0, 0)))
    model = two_learnable_layer_net()
    _, metrics = train_step((images, labels), model, TrainConfig(lr=0.1, lam=0.0))
    assert metrics["ortho_loss"] > 0
    assert metrics["loss"] == metrics["task_loss"]


def test_train_step_adds_ortho_term_per_layer():
    images, labels = toy_two_class(16, seed=2)
    images = np.pad(images, ((0, 0), (2, 2), (2, 2), (0, 0)))
    model = two_learnable_layer_net()
    loss, metrics = train_step((images, labels), model, TrainConfig(lr=0.1, lam=0.1))
    convs = model.conv_layers()
    assert len(convs) == 2 and all(layer.trainable_masks for layer in convs)
    # two layers of all-ones s=2 masks contribute 1.0 each; no set bit clears
    # at lr 0.1, so the layers still hold the masks the step scored
    assert metrics["flip_rate"] == 0.0
    assert metrics["ortho_loss"] == sum(ortho_loss(layer.masks) for layer in convs) == 2.0
    assert loss == metrics["loss"] == metrics["task_loss"] + 0.1 * metrics["ortho_loss"]


# ------------------------------------------------------------------- sgd


def sgd_conv(filters, grad_filters):
    """A standard float64 MaskedConv holding the given filters and filter gradient."""
    k, d, _, c = filters.shape
    conv = MaskedConv(LayerSpec("standard", d=d, c=c, k=k), FilterBank(filters, np.zeros(k)))
    conv.grads = BankGrads(grad_filters, np.zeros(k), None, None)
    return conv


def test_sgd_arithmetic():
    conv = sgd_conv(np.full((1, 1, 1, 1), 1.0), np.full((1, 1, 1, 1), 0.5))
    conv.sgd(lr=0.1)
    assert conv.bank.filters[0, 0, 0, 0] == pytest.approx(0.95)


def test_sgd_two_steps_equal_one_double_step():
    g = np.random.default_rng(3).normal(size=(2, 3, 3, 1))
    a = sgd_conv(np.ones((2, 3, 3, 1)), g)
    a.sgd(0.1)
    a.sgd(0.1)
    b = sgd_conv(np.ones((2, 3, 3, 1)), 2 * g)
    b.sgd(0.1)
    np.testing.assert_allclose(a.bank.filters, b.bank.filters, atol=1e-15)


# ------------------------------------------------------------ train_step


def test_train_step_lr_zero_keeps_model_constant():
    images, labels = toy_two_class(32)
    model = tiny_spatial_net()
    config = TrainConfig(lr=1.0, lam=0.0, batch=32, loss="cross-entropy")
    config.lr = 0.0  # bypass the >0 construction check for the degenerate case
    losses = []
    w_before = model.layers[0].bank.filters.copy()
    for _ in range(3):
        loss, _ = train_step((images, labels), model, config)
        losses.append(loss)
    assert losses[0] == losses[1] == losses[2]
    assert np.array_equal(model.layers[0].bank.filters, w_before)


def test_train_step_rejects_bad_config():
    nan, inf = float("nan"), float("inf")
    for bad in (
        dict(lr=0.0),
        dict(lr=nan),
        dict(lr=inf),
        dict(lam=-1.0),
        dict(lam=nan),
        dict(lam=inf),
        dict(batch=0),
        dict(epochs=0),
        dict(loss="hinge"),
    ):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


def test_train_step_nonfinite_loss_aborts():
    images, labels = toy_two_class(8)
    model = tiny_spatial_net()
    model.layers[-1].w *= np.inf
    with pytest.raises(TrainingDiverged):
        train_step((images, labels), model, TrainConfig(lr=0.1, lam=0.0))


def test_toy_two_class_reaches_full_training_accuracy():
    images, labels = toy_two_class(64, seed=5)
    model = tiny_spatial_net(seed=1)
    config = TrainConfig(lr=0.2, lam=0.0, epochs=200, batch=64, seed=0)
    fit(model, images, labels, config, steps=200)
    logits = model.forward(images)
    acc = float(np.mean(np.argmax(logits, axis=1) == labels))
    assert acc == 1.0


def test_equivalence_frozen_all_ones_masks_match_standard_model():
    # learnable variant with s=1, frozen all-ones masks == standard conv net
    images, labels = toy_two_class(48, seed=7)
    images32 = np.pad(images, ((0, 0), (2, 2), (2, 2), (0, 0)))  # 12x12 fits the stack
    kwargs = dict(
        conv1_maps=4, conv2_maps=8, hidden=16, input_hw=12, seed=3, dtype=np.float64
    )
    std = build_small_cnn(variant="standard", **kwargs)
    ver = build_small_cnn(variant="learnable", strategy="shared", s=1, **kwargs)
    for layer in ver.conv_layers():
        assert np.all(layer.masks.dense() == 1)  # a fresh learnable layer: all bits on
    for layer_s, layer_v in zip(std.conv_layers(), ver.conv_layers()):
        assert np.array_equal(layer_s.bank.filters, layer_v.bank.filters)
    config = TrainConfig(lr=0.05, lam=0.0, epochs=4, batch=16, seed=0)
    hist_s = fit(std, images32, labels, config)
    hist_v = fit(ver, images32, labels, config)
    losses_s = [r["loss"] for r in hist_s.records]
    losses_v = [r["loss"] for r in hist_v.records]
    assert losses_s == losses_v  # bitwise-identical trajectories
    for layer_s, layer_v in zip(std.conv_layers(), ver.conv_layers()):
        assert np.array_equal(layer_s.bank.filters, layer_v.bank.filters)
        # trainable, but no set bit clears: that needs lr * grad >= 1
        assert np.all(layer_v.masks.dense() == 1)


def test_flip_monotonicity_of_literal_update_rule():
    # set bit: flips only when lr*grad >= 1; cleared bit: flips iff grad < 0
    dense = np.array([[1.0, 0.0]] * 9)
    ms = from_dense(dense, "learned-shared", 3, 1, 2)
    for lr, grad_val, expect_flip in [
        (0.1, 9.99, False),
        (0.1, 10.0, True),
        (0.5, 1.99, False),
        (0.5, 2.01, True),
    ]:
        grad = np.zeros((9, 2))
        grad[:, 0] = grad_val
        bit = agent_update(ms, grad, lr).dense()[0, 0]
        assert (bit == 0) == expect_flip
    for grad_val, expect_on in [(-1e-9, True), (0.0, False), (0.5, False)]:
        grad = np.zeros((9, 2))
        grad[:, 1] = grad_val
        bit = agent_update(ms, grad, 0.1).dense()[0, 1]
        assert (bit == 1) == expect_on


def test_fit_is_deterministic_given_seed():
    images, labels = toy_two_class(32, seed=9)
    runs = []
    for _ in range(2):
        model = tiny_spatial_net(seed=4)
        fit(model, images, labels, TrainConfig(lr=0.1, lam=0.0, epochs=2, batch=8, seed=11))
        runs.append(model.layers[0].bank.filters.copy())
    assert np.array_equal(runs[0], runs[1])


def saved_by_layer(model):
    """What each layer keeps from its last forward for a backward."""
    return [getattr(layer, "_saved", None) for layer in model.layers]


def test_fit_leaves_no_patches_on_the_conv_layers():
    rng = np.random.default_rng(2)
    images = rng.random((16, 12, 12, 1)).astype(np.float32)
    model = build_small_cnn("learnable", "separate", s=2, hidden=16, input_hw=12, seed=3)
    model.forward(images[:2])
    assert sum(saved is not None for saved in saved_by_layer(model)) == 8  # all but the pools
    fit(model, images, rng.integers(0, 10, 16), TrainConfig(epochs=1, batch=8, seed=1))
    assert len(model.conv_layers()) == 2
    assert all(saved is None for saved in saved_by_layer(model))  # patches and activations


def test_evaluate_leaves_no_patches_on_the_conv_layers():
    rng = np.random.default_rng(2)
    images = rng.random((16, 12, 12, 1)).astype(np.float32)
    model = build_small_cnn("learnable", "separate", s=2, hidden=16, input_hw=12, seed=3)
    model.forward(images[:2])
    assert sum(saved is not None for saved in saved_by_layer(model)) == 8  # all but the pools
    evaluate(model, images, rng.integers(0, 10, 16), batch=8)
    assert len(model.conv_layers()) == 2
    assert all(saved is None for saved in saved_by_layer(model))  # patches and activations


def test_format_log_record_fields():
    line = format_log_record(3, {"loss": 1.5, "task_loss": 1.25, "ortho_loss": 2.5, "accuracy": 0.5, "flip_rate": 0.0})
    assert line.startswith("step=3 loss=1.500000 task_loss=1.250000")
    assert "ortho_loss=2.500000" in line and "flip_rate=0.000000" in line


def test_mse_training_mode_runs():
    rng = np.random.default_rng(0)
    images = rng.normal(size=(16, 8, 8, 1))
    targets = rng.normal(size=(16, 2))
    model = tiny_spatial_net(seed=2)
    config = TrainConfig(lr=0.01, lam=0.0, loss="mean-squared-error")
    loss1, _ = train_step((images, targets), model, config)
    loss2, _ = train_step((images, targets), model, config)
    assert loss2 < loss1


# ----------------------------------------------------------- checkpoints


def small_model(seed=0):
    return build_small_cnn(
        variant="learnable",
        strategy="separate",
        s=2,
        conv1_maps=4,
        conv2_maps=8,
        hidden=16,
        input_hw=12,
        seed=seed,
    )


def test_checkpoint_roundtrip_forward_bitwise(tmp_path):
    model = small_model()
    x = np.random.default_rng(0).normal(size=(3, 12, 12, 1)).astype(np.float32)
    before = model.forward(x)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    after = loaded.forward(x)
    assert np.array_equal(before, after)


def test_checkpoint_second_save_is_byte_identical(tmp_path):
    model = small_model(seed=5)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_preserves_all_variants(tmp_path, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random numbers")

    for variant, kwargs in [
        ("standard", {}),
        ("spatial", {}),  # conv1 has 3 scales, conv2 has 2: 6 and 8 maps divide
        ("channel", dict(c_hat=3, g=3)),  # conv2 sees 6 channels -> 2 windows
        ("learnable", dict(strategy="shared", s=2)),
        ("learnable", dict(strategy="random-fixed", s=2)),
    ]:
        model = build_small_cnn(
            variant=variant,
            conv1_maps=6,
            conv2_maps=8,
            hidden=8,
            input_hw=12,
            seed=1,
            **kwargs,
        )
        x = np.random.default_rng(1).normal(size=(2, 12, 12, 1)).astype(np.float32)
        before = model.forward(x)
        path = tmp_path / f"{variant}-{kwargs.get('strategy', '')}.ckpt"
        save_checkpoint(model, path)
        # layers are built from the arrays read, not initialized and overwritten
        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng", no_draws)
            loaded = load_checkpoint(path)
        assert np.array_equal(before, loaded.forward(x))
        for conv in model.conv_layers() + loaded.conv_layers():  # only learnable layers hold masks
            assert (conv.masks is not None) == (conv.spec.variant == "learnable")


def test_checkpoint_truncation_names_offset(tmp_path):
    model = small_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    data = path.read_bytes()
    (tmp_path / "cut.ckpt").write_bytes(data[: len(data) // 2])
    with pytest.raises(CheckpointError, match="offset"):
        load_checkpoint(tmp_path / "cut.ckpt")


def test_checkpoint_truncated_at_every_offset_raises_checkpoint_error(tmp_path):
    model = build_small_cnn(
        "learnable", strategy="separate", s=2, conv1_maps=2, conv2_maps=2, hidden=2,
        n_classes=2, input_hw=12,
    )
    save_checkpoint(model, tmp_path / "model.ckpt")
    data = (tmp_path / "model.ckpt").read_bytes()
    for cut in range(len(data)):
        path = tmp_path / f"cut{cut}.ckpt"
        path.write_bytes(data[:cut])
        with pytest.raises(CheckpointError, match=r"truncated .* at offset \d+ \(wanted \d+ bytes, \d+ left\)"):
            load_checkpoint(path)


def test_checkpoint_foreign_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_version_mismatch_rejected(tmp_path):
    path = tmp_path / "v2.ckpt"
    path.write_bytes(MAGIC + struct.pack("<II", 99, 0))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def conv_checkpoint(variant=0, strategy=0, d=3, c=1, k=1, s=1, body=b"", c_hat=0, g=0, padding=0, version=VERSION):
    """A one-layer checkpoint: a conv record header, then ``body``."""
    header = struct.pack("<BB8If", variant, strategy, d, c, k, s, c_hat, g, 1, padding, 0.0)
    return MAGIC + struct.pack("<IIB", version, 1, 1) + header + body


def f32_bytes(count):
    return np.zeros(count, dtype="<f4").tobytes()


@pytest.mark.parametrize(
    "data, message",
    [
        # a version-1 record: header, flags (biases, masks, latent), filters, bias
        (
            conv_checkpoint(version=1, body=bytes([1, 0, 0]) + f32_bytes(9 + 1)),
            "checkpoint version 1 unsupported",
        ),
        # dims whose product overflows int64; 51 bytes in all
        (
            conv_checkpoint(d=60000, c=60000, k=60000),
            r"truncated conv filters at offset 51 \(wanted 51840000000000000000 bytes, 0 left\)",
        ),
        # 4 GiB of filters declared, none present
        (conv_checkpoint(d=64, c=64, k=4096), r"truncated conv filters at offset 51 \(wanted 4294967296 bytes, 0 left\)"),
        # learnable shared, s=2: three mask rows instead of two
        (
            conv_checkpoint(
                variant=3, strategy=1, k=2, s=2,
                body=f32_bytes(18 + 4) + struct.pack("<II", 3, 1) + bytes(12),
            ),
            "offset 13: learned-shared mask set expects 2 masks, got 3",
        ),
        # learnable shared, s=2: 2**32 - 1 mask rows declared, none present
        (
            conv_checkpoint(variant=3, strategy=1, k=2, s=2, body=f32_bytes(18 + 4) + struct.pack("<II", 2**32 - 1, 1)),
            "offset 13: learned-shared mask set expects 2 masks, got 4294967295",
        ),
        # nine mask bits, and bit 9 of their word set: a re-save could not write it
        (
            conv_checkpoint(
                variant=3, strategy=1, k=1, s=1,
                body=f32_bytes(9 + 1) + struct.pack("<II", 1, 1) + struct.pack("<I", 0x1FF | 1 << 9),
            ),
            "offset 13: mask words set padding bits past bit 9",
        ),
        # two mask words for nine bits
        (
            conv_checkpoint(
                variant=3, strategy=1, k=1, s=1,
                body=f32_bytes(9 + 1) + struct.pack("<II", 1, 2) + bytes(8),
            ),
            "2 mask words do not fit d=3 c=1 at offset",
        ),
        # a zero kernel size
        (conv_checkpoint(d=0), "offset 13: invalid layer geometry"),
        # a dense layer with no inputs
        (MAGIC + struct.pack("<IIBII", VERSION, 1, 5, 0, 4) + f32_bytes(4), "dense layer with no inputs at offset"),
        # a dense layer with no outputs
        (MAGIC + struct.pack("<IIBII", VERSION, 1, 5, 4, 0), "dense layer with no outputs at offset 21"),
        # a spatial record carrying a random-fixed strategy, s, c_hat and g
        (
            conv_checkpoint(variant=1, strategy=3, s=99, c_hat=77, g=55, body=f32_bytes(9 + 2)),
            "offset 13: spatial layers take no strategy",
        ),
        # a spatial record whose s is not ceil(d/2)
        (conv_checkpoint(variant=1, s=99, body=f32_bytes(9 + 2)), "offset 13: spatial s must be ceil"),
        # a standard record carrying a channel window
        (conv_checkpoint(c_hat=1, g=1, body=f32_bytes(9 + 1)), "offset 13: standard layers take no c_hat or g"),
        # a channel record whose s is not (c - c_hat)/g + 1 = 2
        (
            conv_checkpoint(variant=2, d=1, c=4, c_hat=2, g=2, s=3, body=f32_bytes(4)),
            r"offset 13: channel s must be \(c - c_hat\)/g \+ 1 = 2, got 3",
        ),
        # a learnable record without a strategy
        (conv_checkpoint(variant=3, s=1, body=f32_bytes(9 + 1)), "offset 13: learnable variant needs a strategy"),
        # an unknown strategy code on a standard record
        (conv_checkpoint(strategy=9, body=f32_bytes(9 + 1)), "conv header at offset 13 does not re-encode"),
        # an unknown variant code
        (conv_checkpoint(variant=7, body=f32_bytes(9 + 1)), "offset 13: unknown variant 7"),
        # padding d: the outer windows would read padding only
        (conv_checkpoint(padding=3, body=f32_bytes(9 + 1)), "offset 13: conv: padding 3 is not below d=3"),
    ],
)
def test_checkpoint_hostile_records_rejected(tmp_path, data, message):
    path = tmp_path / "hostile.ckpt"
    path.write_bytes(data)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_checkpoint_save_refuses_padding_not_below_d(tmp_path):
    # d - 1 is the widest padding a record holds, so every saved file loads
    widest = MaskedConv.init(LayerSpec("standard", d=3, c=1, k=2, padding=2), seed=0)
    save_checkpoint(Network([widest]), tmp_path / "widest.ckpt")
    assert load_checkpoint(tmp_path / "widest.ckpt").layers[0].spec.padding == 2
    wider = MaskedConv.init(LayerSpec("standard", d=3, c=1, k=2, padding=3), seed=0)
    with pytest.raises(ShapeError, match="padding 3 is not below d=3"):
        save_checkpoint(Network([wider]), tmp_path / "wider.ckpt")
    assert not (tmp_path / "wider.ckpt").exists()


def test_checkpoint_channel_record_loads_without_building_its_windows(tmp_path, traced_peak):
    # one channel record, d=1 c=4096 c_hat=1 g=1 k=1: 16 KiB of filters behind
    # 4096 windows of 4096 bits, which the kernels read as index ranges
    data = conv_checkpoint(variant=2, d=1, c=4096, s=4096, c_hat=1, g=1, body=f32_bytes(4096))
    assert len(data) == 16435
    path = tmp_path / "bomb.ckpt"
    path.write_bytes(data)
    (conv,), peak = traced_peak(lambda: load_checkpoint(path).layers)
    assert peak < 2**20
    assert conv.spec.s == 4096 and conv.masks is None


def test_identical_seeds_produce_identical_checkpoints(tmp_path):
    images, labels = toy_two_class(32, seed=2)
    images = images.astype(np.float32)
    paths = []
    for run in range(2):
        model = small_model(seed=8)
        config = TrainConfig(lr=0.1, lam=0.1, epochs=1, batch=8, seed=3)
        # 12x12 inputs for the small model
        fit(model, np.pad(images, ((0, 0), (2, 2), (2, 2), (0, 0))), labels, config)
        path = tmp_path / f"run{run}.ckpt"
        save_checkpoint(model, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def random_bit_model(strategy, seed=0):
    """small_model's stack with the given strategy and every mask bit a fair coin."""
    model = build_small_cnn(
        "learnable", strategy=strategy, s=2, conv1_maps=4, conv2_maps=8, hidden=16,
        input_hw=12, seed=seed,
    )
    rng = np.random.default_rng(seed + 1)
    for conv in model.conv_layers():
        ms = conv.masks
        bits = rng.integers(0, 2, size=(ms.bits_per_mask, ms.n_masks))
        conv.masks = from_dense(bits, ms.kind, ms.d, ms.c, ms.s, ms.k)
    return model


@pytest.mark.parametrize("strategy", ["separate", "random-fixed"])
def test_resumed_training_writes_the_uninterrupted_checkpoint(tmp_path, strategy):
    images, labels = toy_two_class(48, seed=4)
    images = np.pad(images, ((0, 0), (2, 2), (2, 2), (0, 0))).astype(np.float32)
    configs = [TrainConfig(lr=2.0, lam=0.1, epochs=1, batch=8, seed=seed) for seed in (0, 1)]

    whole = random_bit_model(strategy)
    flips = []
    for config in configs:
        flips += [r["flip_rate"] for r in fit(whole, images, labels, config, steps=3).records]
    save_checkpoint(whole, tmp_path / "whole.ckpt")

    resumed = random_bit_model(strategy)
    fit(resumed, images, labels, configs[0], steps=3)
    save_checkpoint(resumed, tmp_path / "half.ckpt")
    resumed = load_checkpoint(tmp_path / "half.ckpt")
    fit(resumed, images, labels, configs[1], steps=3)
    save_checkpoint(resumed, tmp_path / "resumed.ckpt")

    assert (tmp_path / "resumed.ckpt").read_bytes() == (tmp_path / "whole.ckpt").read_bytes()
    # learned bits do flip at this rate; random-fixed bits never do
    assert (max(flips) > 0) == (strategy == "separate")


def test_flip_rate_is_the_fraction_of_bits_the_step_changed():
    images, labels = toy_two_class(16, seed=6)
    images = np.pad(images, ((0, 0), (2, 2), (2, 2), (0, 0))).astype(np.float32)
    model = random_bit_model("separate", seed=2)
    config = TrainConfig(lr=2.0, lam=0.1, batch=16)
    total = sum(conv.masks.n_masks * conv.masks.bits_per_mask for conv in model.conv_layers())
    rates = []
    for _ in range(4):
        before = [conv.masks for conv in model.conv_layers()]
        _, metrics = train_step((images, labels), model, config)
        flipped = sum(conv.masks.flip_count(old) for conv, old in zip(model.conv_layers(), before))
        assert metrics["flip_rate"] == flipped / total
        rates.append(metrics["flip_rate"])
    assert rates[0] > 0  # the first step reports its own update, not a zero


def test_evaluate_matches_manual_accuracy():
    images, labels = toy_two_class(40, seed=3)
    model = tiny_spatial_net(seed=6)
    acc = evaluate(model, images, labels, batch=16)
    logits = model.forward(images)
    want = float(np.mean(np.argmax(logits, axis=1) == labels))
    assert acc == pytest.approx(want)


def test_fit_rejects_a_step_cap_below_one():
    images, labels = toy_two_class(8)
    for steps in (0, -3):
        model = tiny_spatial_net()
        before = model.layers[0].bank.filters.copy()
        with pytest.raises(ValueError, match="step"):
            fit(model, images, labels, TrainConfig(lr=0.1, lam=0.0, batch=4), steps=steps)
        assert np.array_equal(model.layers[0].bank.filters, before)  # no step ran


def counted_forwards(model, monkeypatch):
    """The batch sizes of every ``model.forward`` call from here on."""
    sizes, forward = [], model.forward
    monkeypatch.setattr(model, "forward", lambda x: sizes.append(len(x)) or forward(x))
    return sizes


def test_evaluate_rejects_a_bad_batch_or_label_count_before_any_forward(monkeypatch):
    # batch=-1 read no image and scored 0.0; one label for 16 images was
    # broadcast, and 20 labels were cut to 16
    images, labels = toy_two_class(16)
    model = tiny_spatial_net()
    forwards = counted_forwards(model, monkeypatch)
    for batch in (-1, 0):
        with pytest.raises(ValueError, match="batch must be >= 1"):
            evaluate(model, images, labels, batch=batch)
    for wrong in (labels[:1], np.concatenate([labels, labels[:4]])):
        with pytest.raises(DataError, match=f"{len(wrong)} labels for 16 images"):
            evaluate(model, images, wrong)
    assert forwards == []
    assert evaluate(model, images, labels, batch=5) == evaluate(model, images, labels)
    assert forwards == [5, 5, 5, 1, 16]


def test_fit_rejects_a_label_count_that_differs_from_the_image_count(monkeypatch):
    # 8 labels for 16 images raised IndexError partway through an epoch
    images, labels = toy_two_class(16)
    model = tiny_spatial_net()
    forwards = counted_forwards(model, monkeypatch)
    before = model.layers[0].bank.filters.copy()
    for wrong in (labels[:8], np.concatenate([labels, labels[:4]])):
        with pytest.raises(DataError, match=f"{len(wrong)} labels for 16 images"):
            fit(model, images, wrong, TrainConfig(lr=0.1, lam=0.0, batch=4))
    assert forwards == []
    assert np.array_equal(model.layers[0].bank.filters, before)


# The digit bench's three variants (feature maps conv1/conv2, orthogonality
# weight) and its training recipe, at seed 0: three fits of four steps on
# 512 generated digits read back from IDX files, batch 64, lr 0.15, the fits seeded 0, 1 and 2.
CHECKPOINT_VARIANTS = {
    "standard": (dict(variant="standard", conv1_maps=8), 0.0),
    "spatial": (dict(variant="spatial", conv1_maps=9), 0.0),
    "learn_sep_s2": (dict(variant="learnable", strategy="separate", s=2, conv1_maps=8), 0.1),
}
# sha256 over the checkpoint bytes written after each fit
FIT_CHECKPOINT_SHA256 = {
    "standard": "612aabd9092cd8720cdfa3335a5145d7d99127a392ce87007bb6602162aee42d",
    "spatial": "451df5315750947e501f7ebff9b0c9e8a184f449041ac585097f6da986440f1b",
    "learn_sep_s2": "5f3e51dbe3e89d100000ff3d1304ed94fa0bd8a44bd88de22a5a072a6502cf89",
}


def fit_checkpoint_digests(tmp_path):
    images, labels = generate_digits(512, 0)
    write_idx_images(tmp_path / "train-images.idx", images)
    write_idx_labels(tmp_path / "train-labels.idx", labels)
    images, labels = load_dataset_dir(tmp_path, "train")
    digests = {}
    for name, (kwargs, lam) in CHECKPOINT_VARIANTS.items():
        model = build_small_cnn(conv2_maps=16, lam=lam, seed=0, **kwargs)
        digest = hashlib.sha256()
        for fit_seed in range(3):
            config = TrainConfig(lr=0.15, lam=lam, epochs=1, batch=64, seed=fit_seed)
            fit(model, images, labels, config, steps=4)
            save_checkpoint(model, tmp_path / f"{name}.ckpt")
            digest.update((tmp_path / f"{name}.ckpt").read_bytes())
        digests[name] = digest.hexdigest()
    return digests


def test_fit_checkpoints_keep_their_bytes(tmp_path):
    assert fit_checkpoint_digests(tmp_path) == FIT_CHECKPOINT_SHA256
