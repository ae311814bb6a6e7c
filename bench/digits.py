"""Workloads on the small digit CNN: ``train-digits`` and ``eval-digits``.

Both run one closed loop (one caller; the next call starts when the
previous one returns), round-robin over three model variants at equal
feature-map counts: the standard-conv control and separate learned masks
with s=2 (the acceptance-criterion-6 pair) plus the spatial pyramid.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from common import (
    Context,
    call_summary,
    in_calls,
    mean_or_zero,
    median_rate,
    median_setup,
    module_metrics,
    run_rounds,
    span_ms,
    total_seconds,
)
from spans import clock

from maskconv import checkpoint, datagen, fastinfer, idx, network, training

# name -> (build_small_cnn kwargs, orthogonality weight).  The spatial
# pyramid's 5x5 conv1 has 3 scales, so it gets 9 maps instead of 8.
VARIANTS = {
    "standard": (dict(variant="standard", conv1_maps=8), 0.0),
    "spatial": (dict(variant="spatial", conv1_maps=9), 0.0),
    "learn_sep_s2": (dict(variant="learnable", strategy="separate", s=2, conv1_maps=8), 0.1),
}
LEARNABLE = "learn_sep_s2"
CONV2_MAPS = 16
LR = 0.15

TRAIN_IMAGES = 2048
TRAIN_BATCH = 64
STEPS_PER_FIT = 4  # one fit call per variant per round

PREP_IMAGES = 128  # train split used only to move eval checkpoints off init
PREP_STEPS = 2
TEST_IMAGES = 256
# Not training.evaluate's default of 256: at 256, conv1's columns and each
# map's products (~15 MB each) stream from DRAM, and on a shared host the
# eval figures then moved by 20-25% between sets of runs of the same code,
# with the neighbours' memory traffic.  At 16 they (~0.9 MB) fit a 2 MB L2,
# the other side of it from train's batch 64 (~3.7 MB).
EVAL_BATCH = 16

SETUP_REPS = 5


def build(name: str, seed: int) -> network.Network:
    kwargs, lam = VARIANTS[name]
    return network.build_small_cnn(conv2_maps=CONV2_MAPS, lam=lam, seed=seed, **kwargs)


def _ckpt(ctx: Context, name: str):
    return ctx.workdir / "data" / f"{name}.ckpt"


def train_config(name: str, seed: int, steps_seed: int) -> training.TrainConfig:
    return training.TrainConfig(
        lr=LR, lam=VARIANTS[name][1], epochs=1, batch=TRAIN_BATCH, seed=seed * 1000 + steps_seed
    )


# -- train-digits ------------------------------------------------------------


def _train_setup(ctx: Context):
    data = ctx.workdir / "data"
    data.mkdir(exist_ok=True)
    with ctx.tracer.span("bench.setup"):
        images, labels = datagen.generate_digits(TRAIN_IMAGES, ctx.seed)
        idx.write_idx_images(data / "train-images.idx", images)
        idx.write_idx_labels(data / "train-labels.idx", labels)
        x, y = idx.load_dataset_dir(data, "train")
        models = {name: build(name, ctx.seed) for name in VARIANTS}
    return x, y, models


def _train_rounds(ctx: Context, x, y, models, seconds=None, rounds=None):
    """Fit every variant STEPS_PER_FIT steps per round, then checkpoint it.

    Returns (rounds as (images, seconds), step ms, per-step records as
    (variant, loss, flip rate)).
    """
    step_ms, records = [], []

    def one_round(i):
        start = clock()
        steps = 0
        for name, model in models.items():
            stamps = [clock()]
            with ctx.tracer.span("bench.fit", variant=name):
                history = training.fit(
                    model,
                    x,
                    y,
                    train_config(name, ctx.seed, i),
                    log=lambda _line: stamps.append(clock()),
                    steps=STEPS_PER_FIT,
                )
                checkpoint.save_checkpoint(model, _ckpt(ctx, name))
            step_ms.extend(1e3 * np.diff(stamps))
            records.extend((name, r["loss"], r["flip_rate"]) for r in history.records)
            steps += len(history.records)
        return steps * TRAIN_BATCH, clock() - start

    return run_rounds(one_round, seconds, rounds), step_ms, records


def _check_losses(ctx: Context, records) -> None:
    for name, loss, _ in records:
        ctx.checks.check(bool(np.isfinite(loss)), f"{name}: non-finite loss {loss}")


def train_digits(ctx: Context) -> dict[str, float]:
    if not ctx.traced:
        (x, y, models), setup_s = median_setup(lambda: _train_setup(ctx), SETUP_REPS)
        done, step_ms, records = _train_rounds(ctx, x, y, models, seconds=ctx.seconds)
        _check_losses(ctx, records)
        ctx.log(f"train: {len(done)} rounds, {len(step_ms)} steps in {total_seconds(done):.2f} s")
        return {
            "setup_s": setup_s,
            "items_per_s": median_rate(done),
            **call_summary(step_ms, ctx.log, "train step"),
        }

    tracer = ctx.tracer
    with tracer.installed():
        x, y, models = _train_setup(ctx)
        done, _, records = _train_rounds(ctx, x, y, models, seconds=ctx.seconds / 2)
    traced_bytes = {name: _ckpt(ctx, name).read_bytes() for name in models}

    fresh = {name: build(name, ctx.seed) for name in VARIANTS}
    replay, _, untraced_records = _train_rounds(ctx, x, y, fresh, rounds=len(done))
    traced_s, untraced_s = total_seconds(done), total_seconds(replay)
    _check_losses(ctx, records + untraced_records)
    for name in models:
        same = _ckpt(ctx, name).read_bytes() == traced_bytes[name]
        ctx.checks.check(same, f"{name}: traced and untraced runs wrote different checkpoints")
    ctx.log(f"train traced: {len(done)} rounds in {traced_s:.2f} s; untraced replay {untraced_s:.2f} s")

    n_steps = len(span_ms(tracer, "training.train_step"))
    n_learn = len(span_ms(tracer, "training.train_step", variant=LEARNABLE))

    def per_learn_step(*names):
        return sum(sum(span_ms(tracer, n, variant=LEARNABLE)) for n in names) / n_learn

    step_ms = sum(span_ms(tracer, "training.train_step")) / n_steps
    for kind in ("backward", "forward"):
        share = sum(span_ms(tracer, f"network.MaskedConv.{kind}")) / n_steps / step_ms
        ctx.log(f"traced train step {step_ms:.2f} ms: conv {kind} spans {100 * share:.1f}%")
    return {
        **network_metrics(ctx, models, TRAIN_BATCH),
        **module_metrics(tracer, "training.train_step"),
        "masks.binarize_ms": per_learn_step("masks.sign_binarize"),
        "masks.ortho_ms": per_learn_step("masks.ortho_loss", "masks.ortho_grad"),
        "masks.update_ms": per_learn_step("masks.agent_update"),
        "masks.flip_rate": mean_or_zero(f for name, _, f in records if name == LEARNABLE),
        "training.loss_ms": sum(span_ms(tracer, "training.task_loss_and_grad")) / n_steps,
        "training.sgd_ms": sum(span_ms(tracer, "network.Network.sgd")) / n_steps,
        "checkpoint.save_ms": mean_or_zero(span_ms(tracer, "checkpoint.save_checkpoint")),
        "checkpoint.bytes": sum(len(b) for b in traced_bytes.values()),
        **data_metrics(tracer, ctx, "train", TRAIN_IMAGES),
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
    }


# -- eval-digits -------------------------------------------------------------


def _eval_setup(ctx: Context):
    data = ctx.workdir / "data"
    with ctx.tracer.span("bench.setup"):
        datagen.write_dataset(data, n_train=PREP_IMAGES, n_test=TEST_IMAGES, seed=ctx.seed)
        x, y = idx.load_dataset_dir(data, "train")
        models = {}
        for name in VARIANTS:
            model = build(name, ctx.seed)
            training.fit(model, x, y, train_config(name, ctx.seed, 0), steps=PREP_STEPS)
            checkpoint.save_checkpoint(model, _ckpt(ctx, name))
            models[name] = model
    return models


def _eval_gate(ctx: Context, models) -> dict[str, float]:
    """Loaded checkpoints must reproduce the saved models bit for bit."""
    x, y = idx.load_dataset_dir(ctx.workdir / "data", "test")
    expected = {}
    for name, model in models.items():
        loaded = checkpoint.load_checkpoint(_ckpt(ctx, name))
        same = all(
            np.array_equal(model.forward(x[i : i + EVAL_BATCH]), loaded.forward(x[i : i + EVAL_BATCH]))
            for i in range(0, len(x), EVAL_BATCH)
        )
        ctx.checks.check(same, f"{name}: loaded checkpoint forward differs from the saved model")
        expected[name] = training.evaluate(model, x, y, batch=EVAL_BATCH)
    return expected


def _eval_calls(ctx: Context, expected, seconds=None, rounds=None):
    """``maskconv eval``-shaped calls: load checkpoint, load split, evaluate.

    A round is one call per variant.  Returns (rounds as (images,
    seconds), per-call ms).
    """
    call_ms = []

    def one_round(_):
        spent = 0.0
        for name in VARIANTS:
            t0 = clock()
            with ctx.tracer.span("bench.eval_call", variant=name):
                model = checkpoint.load_checkpoint(_ckpt(ctx, name))
                x, y = idx.load_dataset_dir(ctx.workdir / "data", "test")
                accuracy = training.evaluate(model, x, y, batch=EVAL_BATCH)
            call_ms.append(1e3 * (clock() - t0))
            spent += call_ms[-1] / 1e3
            ctx.checks.check(
                accuracy == expected[name],
                f"{name}: accuracy {accuracy} != {expected[name]} of the saved model",
            )
        return len(VARIANTS) * TEST_IMAGES, spent

    return run_rounds(one_round, seconds, rounds), call_ms


def eval_digits(ctx: Context) -> dict[str, float]:
    if not ctx.traced:
        models, setup_s = median_setup(lambda: _eval_setup(ctx), SETUP_REPS)
        expected = _eval_gate(ctx, models)
        done, call_ms = _eval_calls(ctx, expected, seconds=ctx.seconds)
        return {
            "setup_s": setup_s,
            "items_per_s": median_rate(done),
            **call_summary(call_ms, ctx.log, "eval call"),
        }

    tracer = ctx.tracer
    with tracer.installed():
        models = _eval_setup(ctx)
    expected = _eval_gate(ctx, models)
    with tracer.installed():
        done, traced_ms = _eval_calls(ctx, expected, seconds=ctx.seconds / 2)
    replay, _ = _eval_calls(ctx, expected, rounds=len(done))
    traced_s, untraced_s = total_seconds(done), total_seconds(replay)
    ctx.log(f"eval traced: {len(traced_ms)} calls in {traced_s:.2f} s; untraced replay {untraced_s:.2f} s")

    within = in_calls(tracer, "bench.eval_call")
    return {
        **network_metrics(ctx, models, min(EVAL_BATCH, TEST_IMAGES)),
        **module_metrics(tracer, "bench.eval_call"),
        "training.evaluate_ms": mean_or_zero(span_ms(tracer, "training.evaluate")),
        "checkpoint.save_ms": mean_or_zero(span_ms(tracer, "checkpoint.save_checkpoint")),
        "checkpoint.load_ms": mean_or_zero(span_ms(tracer, "checkpoint.load_checkpoint")),
        "checkpoint.bytes": sum(_ckpt(ctx, n).stat().st_size for n in VARIANTS),
        **data_metrics(tracer, ctx, "test", PREP_IMAGES + TEST_IMAGES, within),
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
    }


# -- metrics from spans ------------------------------------------------------


def network_metrics(ctx: Context, models, batch: int) -> dict[str, float]:
    """Per variant: conv forward/backward ms per call, achieved MUL/s, head ms.

    Checkpoints do not store layer names, so a conv span is named by its
    order under its ``Network.forward`` (or reversed ``backward``) span.
    MUL/s sets the cached kernel's closed-form MUL count on the live
    shapes (``predict_counts``) against the measured forward time; the
    closed-form MUL, ADD and MASK counts are logged beside it.
    """
    tracer = ctx.tracer
    conv_names = {v: [conv.spec.name for conv in m.conv_layers()] for v, m in models.items()}
    seen = defaultdict(int)  # (parent span, kind) -> conv spans so far
    conv_ms = defaultdict(list)  # (variant, conv, kind) -> ms per call
    head_ms = defaultdict(float)  # (variant, kind) -> total ms
    net_calls = defaultdict(int)  # (variant, kind) -> Network.forward/backward calls
    for _, parent, name, start, end, attrs in tracer.spans:
        variant = attrs.get("variant")
        module, _, rest = name.partition(".")
        cls, _, method = rest.partition(".")
        kind = {"forward": "fwd", "backward": "bwd"}.get(method)
        if module != "network" or kind is None or variant not in conv_names:
            continue
        if cls == "Network":
            net_calls[(variant, kind)] += 1
        elif cls == "MaskedConv":
            order = conv_names[variant] if kind == "fwd" else conv_names[variant][::-1]
            conv_ms[(variant, order[seen[(parent, kind)]], kind)].append(1e3 * (end - start))
            seen[(parent, kind)] += 1
        else:  # ReLU, AvgPool2, Flatten, Dense
            head_ms[(variant, kind)] += 1e3 * (end - start)

    out = {}
    for v, model in models.items():
        hw = datagen.IMAGE_SIZE
        for conv in model.conv_layers():
            spec = conv.spec
            h_out, w_out, _ = spec.output_shape(hw, hw)
            hw = h_out // 2  # every conv is followed by a 2x2 average pool
            prefix = f"network.{v}.{spec.name}"
            fwd = mean_or_zero(conv_ms[(v, spec.name, "fwd")])
            counts = fastinfer.predict_counts(spec, h_out, w_out)
            out[f"{prefix}.fwd_ms"] = fwd
            out[f"{prefix}.bwd_ms"] = mean_or_zero(conv_ms[(v, spec.name, "bwd")])
            out[f"{prefix}.mul_per_s"] = counts.mul_fp32 * batch / (fwd / 1e3)
            ctx.log(
                f"cost {v}.{spec.name} per batch of {batch}: MUL {counts.mul_fp32 * batch}"
                f" ADD {counts.add_fp32 * batch} MASK {counts.mask_ops * batch};"
                f" forward {fwd:.3f} ms, achieved {out[f'{prefix}.mul_per_s']:.3e} MUL/s"
            )
        for kind in ("fwd", "bwd"):
            calls = net_calls[(v, kind)]
            out[f"network.{v}.head.{kind}_ms"] = head_ms[(v, kind)] / calls if calls else 0.0
    return out


def data_metrics(tracer, ctx: Context, split: str, generated: int, within=None) -> dict[str, float]:
    """Digit generation per image, and IDX loads of ``split`` (inside calls if given)."""
    data = ctx.workdir / "data"
    return {
        "datagen.ms_per_image": sum(span_ms(tracer, "datagen.generate_digits")) / generated,
        "idx.load_ms": mean_or_zero(span_ms(tracer, "idx.load_dataset_dir", within)),
        "idx.bytes": sum((data / f"{split}-{part}.idx").stat().st_size for part in ("images", "labels")),
    }
