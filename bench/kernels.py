"""``layer-kernels``: single-image sweep over a fixed list of layer specs.

Every visit runs one spec in one dtype through the cached-product kernel
(``fastinfer.cached_forward``), the explicit masked-filter kernel
(``layers.bank_forward``), its backward (``layers.bank_backward``) and,
as the baseline, standard convolution at the same map count
(``convref.im2col`` + ``convref.matmul_conv``).  The paper's 1/s MUL
claim lives in the first two; the sweep is also the single-image path a
merged conv core must not slow down.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

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

from maskconv import convref, fastinfer, layers
from maskconv.layers import LayerSpec

HW = 32
DTYPES = (np.float32, np.float64)

# name -> spec; the last one's patch matrix (1600 x 784 values, 5 MB at
# float32) exceeds a 2 MB per-core L2.
SPECS = {
    "std_d3_c16_n32": LayerSpec("standard", d=3, c=16, k=32),
    "spatial_d5_c16_k8": LayerSpec("spatial", d=5, c=16, k=8),
    "channel_d1_c64_ch32_g8": LayerSpec("channel", d=1, c=64, k=8, c_hat=32, g=8),
    "channel_d3_c16_ch8_g4": LayerSpec("channel", d=3, c=16, k=8, c_hat=8, g=4),
    "shared_d3_c16_s2": LayerSpec("learnable", d=3, c=16, k=16, s=2, strategy="shared"),
    "shared_d3_c16_s4": LayerSpec("learnable", d=3, c=16, k=8, s=4, strategy="shared"),
    "separate_d3_c16_s2": LayerSpec("learnable", d=3, c=16, k=16, s=2, strategy="separate"),
    "separate_d3_c16_s4": LayerSpec("learnable", d=3, c=16, k=8, s=4, strategy="separate"),
    "random_d3_c16_s2": LayerSpec("learnable", d=3, c=16, k=16, s=2, strategy="random-fixed"),
    "random_d3_c16_s4": LayerSpec("learnable", d=3, c=16, k=8, s=4, strategy="random-fixed"),
    "separate_d5_c64_s2_big": LayerSpec("learnable", d=5, c=64, k=2, s=2, strategy="separate"),
}
KERNELS = ("cached_fwd", "bank_fwd", "bank_bwd", "std_conv")

# set-up takes ~40 ms, so its median needs more samples than the digit
# workloads' to hold steady between runs
SETUP_REPS = 25


@dataclass
class Item:
    """One (spec, dtype) pair with its inputs and, after the gate, its answers."""

    name: str
    spec: LayerSpec
    dtype: str
    x: np.ndarray
    bank: layers.FilterBank
    masks: object
    grad_y: np.ndarray
    std_filters: np.ndarray
    predicted: fastinfer.OpCounts
    ref: np.ndarray | None = None
    std_ref: np.ndarray | None = None
    grads: layers.BankGrads | None = None
    measured: fastinfer.OpCounts | None = None  # tallies of the latest cached_forward


def _setup(seed: int) -> list[Item]:
    items = []
    for si, (name, spec) in enumerate(SPECS.items()):
        for dtype in DTYPES:
            rng = np.random.default_rng([seed, si, np.dtype(dtype).itemsize])
            bank = layers.random_bank(spec, int(rng.integers(2**31)), dtype=dtype)
            if bank.biases is not None:
                bank.biases = rng.normal(size=spec.n_secondary).astype(dtype)
            masks = fastinfer.masks_for_spec(spec, int(rng.integers(2**31)))
            h_out, w_out, n = spec.output_shape(HW, HW)
            items.append(
                Item(
                    name=name,
                    spec=spec,
                    dtype=np.dtype(dtype).name,
                    x=rng.normal(size=(HW, HW, spec.c)).astype(dtype),
                    bank=bank,
                    masks=masks,
                    grad_y=rng.normal(size=(h_out, w_out, n)).astype(dtype),
                    std_filters=rng.normal(size=(spec.d * spec.d * spec.c, n)).astype(dtype),
                    predicted=fastinfer.predict_counts(spec, h_out, w_out),
                )
            )
    return items


def _reference(item: Item) -> np.ndarray:
    """Map by map through ``conv_reference`` with each masked secondary filter."""
    spec, bank = item.spec, item.bank
    dense = None if item.masks is None else item.masks.dense(bank.filters.dtype)
    maps = []
    for i in range(spec.k):
        for j in range(spec.s):
            f = bank.filters[i]
            if dense is not None:
                f = f * dense[:, item.masks.column_index(i, j)].reshape(f.shape)
            bias = bank.biases[i * spec.s + j] if bank.biases is not None else 0.0
            maps.append(convref.conv_reference(item.x, f, spec.stride, spec.padding, bias))
    return np.stack(maps, axis=2)


def _grads_equal(a: layers.BankGrads, b: layers.BankGrads) -> bool:
    def same(u, v):
        return (u is None and v is None) or (u is not None and v is not None and np.array_equal(u, v))

    return all(same(getattr(a, f), getattr(b, f)) for f in ("filters", "biases", "masks", "x"))


def _gate(ctx: Context, items: list[Item]) -> None:
    """Fix each item's answers from the reference kernels; check the tallies."""
    for item in items:
        spec = item.spec
        item.ref = _reference(item)
        d, c = spec.d, spec.c
        item.std_ref = np.stack(
            [
                convref.conv_reference(item.x, item.std_filters[:, j].reshape(d, d, c), spec.stride, spec.padding)
                for j in range(spec.n_secondary)
            ],
            axis=2,
        )
        item.grads = layers.bank_backward(item.grad_y, item.x, item.bank, item.masks, spec)
        _check_outputs(ctx, item, _visit(item)[1])


def _visit(item: Item):
    """One timed pass of the four kernels; returns (seconds per kernel, outputs)."""
    spec = item.spec
    t0 = clock()
    y_cached, counts = fastinfer.cached_forward(item.x, item.bank, item.masks, spec)
    t1 = clock()
    y_bank = layers.bank_forward(item.x, item.bank, item.masks, spec)
    t2 = clock()
    grads = layers.bank_backward(item.grad_y, item.x, item.bank, item.masks, spec)
    t3 = clock()
    pm = convref.im2col(item.x, spec.d, spec.stride, spec.padding)
    y_std = convref.matmul_conv(pm, item.std_filters)
    t4 = clock()
    return (t1 - t0, t2 - t1, t3 - t2, t4 - t3), (y_cached, counts, y_bank, grads, y_std)


def _check_outputs(ctx: Context, item: Item, outputs) -> None:
    y_cached, counts, y_bank, grads, y_std = outputs
    item.measured = counts
    tag = f"{item.name}/{item.dtype}"
    check = ctx.checks.check
    check(np.array_equal(y_cached, item.ref), f"{tag}: cached_forward != conv_reference")
    check(np.array_equal(y_bank, item.ref), f"{tag}: bank_forward != conv_reference")
    want = item.predicted
    check(
        counts.mul_fp32 == want.mul_fp32 and counts.mask_ops == want.mask_ops,
        f"{tag}: measured MUL/MASK {counts.mul_fp32}/{counts.mask_ops}"
        f" != predicted {want.mul_fp32}/{want.mask_ops}",
    )
    if item.spec.variant != "learnable":  # ADD closed form is exact only for structural masks
        check(counts.add_fp32 == want.add_fp32, f"{tag}: ADD {counts.add_fp32} != {want.add_fp32}")
    check(_grads_equal(grads, item.grads), f"{tag}: bank_backward is not deterministic")
    check(
        np.array_equal(y_std.reshape(item.std_ref.shape), item.std_ref),
        f"{tag}: im2col + matmul_conv != conv_reference",
    )


def _sweeps(ctx: Context, items: list[Item], seconds=None, sweeps=None):
    """Visit every item once per sweep (a round of the closed loop).

    Returns (sweeps as (maps, kernel seconds), {(name, dtype): [seconds
    per kernel]}, ms per kernel call).  Maps count every kernel's output
    maps.
    """
    times = {(item.name, item.dtype): [] for item in items}
    call_ms = []

    def one_sweep(_):
        maps, spent = 0, 0.0
        for item in items:
            with ctx.tracer.span("bench.visit", spec=item.name, dtype=item.dtype):
                seconds_each, outputs = _visit(item)
            times[(item.name, item.dtype)].append(seconds_each)
            call_ms.extend(1e3 * t for t in seconds_each)
            maps += len(KERNELS) * item.spec.n_secondary
            spent += sum(seconds_each)
            _check_outputs(ctx, item, outputs)
        return maps, spent

    return run_rounds(one_sweep, seconds, sweeps), times, call_ms


def _cost_table(ctx: Context, items: list[Item], times) -> None:
    """Closed-form MUL/ADD/MASK beside measured ms and achieved MUL/s."""
    ctx.log(
        "cost model (predict_counts per call; MUL/s = closed-form MULs / median ms;"
        " ops/byte over computed bytes: patches + filters + outputs + mask bits)"
    )
    ctx.log(
        f"{'spec':<24}{'dtype':>8}{'MUL':>10}{'ADD':>10}{'MASK':>10}{'ops/B':>7}"
        f"{'cached ms':>11}{'bank ms':>9}{'std ms':>8}{'cached MUL/s':>14}{'bank MUL/s':>12}"
    )
    for item in items:
        spec, want = item.spec, item.predicted
        h_out, w_out, n = spec.output_shape(HW, HW)
        v, l = spec.d * spec.d * spec.c, h_out * w_out
        med = [statistics.median(t[i] for t in times[(item.name, item.dtype)]) for i in range(4)]
        moved = item.x.itemsize * (v * l + v * spec.k + l * n) + want.mask_bits // 8
        ops = want.mul_fp32 + want.add_fp32 + want.mask_ops
        ctx.log(
            f"{item.name:<24}{item.dtype:>8}{want.mul_fp32:>10}{want.add_fp32:>10}{want.mask_ops:>10}"
            f"{ops / moved:>7.2f}{1e3 * med[0]:>11.3f}{1e3 * med[1]:>9.3f}{1e3 * med[3]:>8.3f}"
            f"{want.mul_fp32 / med[0]:>14.3e}{v * l * n / med[1]:>12.3e}"
        )


def _log_kernel_rates(ctx: Context, times) -> None:
    """Output maps per second of each kernel's own time over the run."""
    rates = []
    for i, kernel in enumerate(KERNELS):
        maps = sum(SPECS[name].n_secondary * len(ts) for (name, _), ts in times.items())
        spent = sum(t[i] for ts in times.values() for t in ts)
        rates.append(f"{kernel} {maps / spent:.1f}")
    ctx.log("maps/s: " + ", ".join(rates))


def layer_kernels(ctx: Context) -> dict[str, float]:
    if not ctx.traced:
        items, setup_s = median_setup(lambda: _setup(ctx.seed), SETUP_REPS)
        _gate(ctx, items)
        done, times, call_ms = _sweeps(ctx, items, seconds=ctx.seconds)
        ctx.log(f"{len(done)} sweeps in {total_seconds(done):.2f} s of kernel time")
        _log_kernel_rates(ctx, times)
        _cost_table(ctx, items, times)
        return {
            "setup_s": setup_s,
            "items_per_s": median_rate(done),
            **call_summary(call_ms, ctx.log, "kernel call"),
        }

    tracer = ctx.tracer
    items = _setup(ctx.seed)
    _gate(ctx, items)
    with tracer.installed():
        done, _, _ = _sweeps(ctx, items, seconds=ctx.seconds / 2)
    replay, times, _ = _sweeps(ctx, items, sweeps=len(done))
    traced_s, untraced_s = total_seconds(done), total_seconds(replay)
    ctx.log(f"kernels traced: {len(done)} sweeps in {traced_s:.2f} s; untraced replay {untraced_s:.2f} s")
    _cost_table(ctx, items, times)

    within = in_calls(tracer, "bench.visit")
    metrics = {
        **module_metrics(tracer, "bench.visit"),
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
    }
    for name in SPECS:
        cached = mean_or_zero(span_ms(tracer, "fastinfer.cached_forward", spec=name))
        mul = next(item.measured.mul_fp32 for item in items if item.name == name)
        metrics.update(
            {
                f"fastinfer.{name}.cached_ms": cached,
                f"fastinfer.{name}.mul_fp32": mul,
                f"fastinfer.{name}.mul_per_s": mul / (cached / 1e3),
                f"layers.{name}.bank_fwd_ms": mean_or_zero(span_ms(tracer, "layers.bank_forward", spec=name)),
                f"layers.{name}.bank_bwd_ms": mean_or_zero(span_ms(tracer, "layers.bank_backward", spec=name)),
                f"convref.{name}.im2col_ms": mean_or_zero(span_ms(tracer, "convref.im2col", within, spec=name)),
                f"convref.{name}.ref_conv_ms": mean_or_zero(span_ms(tracer, "convref.matmul_conv", spec=name)),
            }
        )
    return metrics
