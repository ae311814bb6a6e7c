"""End to end: synthetic digits, masked-filter CNN, checkpoint round trip.

Generates a small IDX dataset, trains the bundled 4-layer CNN twice (a
standard-conv control and a separate-learned-mask variant with the same
feature-map count), compares test accuracy and stored conv parameters,
and exercises checkpoint persistence in a temporary directory that it
removes on exit.  Takes about 15 s on one CPU core; scale n_train up for
the full desk-scale comparison.
"""

import tempfile
from pathlib import Path

import numpy as np

from maskconv.checkpoint import load_checkpoint, save_checkpoint
from maskconv.datagen import write_dataset
from maskconv.fastinfer import predict_counts
from maskconv.idx import load_dataset_dir
from maskconv.network import build_small_cnn
from maskconv.training import TrainConfig, evaluate, fit

with tempfile.TemporaryDirectory(prefix="maskconv-demo-") as tmp:  # removed on exit
    workdir = Path(tmp)
    root = write_dataset(workdir / "digits", n_train=4_000, n_test=800, seed=0)
    train_x, train_y = load_dataset_dir(root, "train")
    test_x, test_y = load_dataset_dir(root, "test")
    print(f"dataset: {len(train_y)} train / {len(test_y)} test images in {root}")

    results = {}
    for label, kwargs in [
        ("standard control", dict(variant="standard")),
        ("separate masks s=2", dict(variant="learnable", strategy="separate", s=2)),
    ]:
        model = build_small_cnn(conv1_maps=8, conv2_maps=16, seed=7, **kwargs)
        for lr, epochs in [(0.15, 8), (0.05, 4)]:
            lam = 0.1 if "masks" in label else 0.0
            fit(model, train_x, train_y, TrainConfig(lr=lr, lam=lam, epochs=epochs, batch=64, seed=7))
        accuracy = evaluate(model, test_x, test_y)
        conv_params = sum(predict_counts(l.spec, 1, 1).param_equiv32 for l in model.conv_layers())
        results[label] = (accuracy, conv_params, model)
        print(f"{label:<20} test accuracy {accuracy:.3f}, conv params (32-bit equiv) {conv_params:,.1f}")

    std_params = results["standard control"][1]
    mask_params = results["separate masks s=2"][1]
    print(f"\nstored conv parameter ratio: {mask_params / std_params:.1%}"
          " (one primary per two maps, plus 1-bit masks)")

    print("\n=== checkpoint round trip ===")
    model = results["separate masks s=2"][2]
    ckpt = workdir / "digits.ckpt"
    save_checkpoint(model, ckpt)
    reloaded = load_checkpoint(ckpt)
    probe = test_x[:8]
    identical = np.array_equal(model.forward(probe), reloaded.forward(probe))
    print(f"saved {ckpt.stat().st_size:,} bytes; reloaded forward bit-identical: {identical}")
