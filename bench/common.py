"""Shared pieces of the benchmark: run context, checks, timing summaries."""

from __future__ import annotations

import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import MODULES, Tracer, clock

# a timing is reported as its median and the p90; p90 is the highest
# percentile with at least ten samples beyond it once a run has 100 calls
TAIL_PERCENTILE = 90
TAIL_MIN_SAMPLES = 100


@dataclass
class Checks:
    """Correctness checks made outside the timed regions."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


@dataclass
class Context:
    """What a workload receives: its seed, time budget and helpers."""

    seed: int
    seconds: float
    traced: bool
    workdir: Path
    checks: Checks
    log: Callable[[str], None]
    tracer: Tracer = field(default_factory=Tracer)


def median_setup(setup, reps: int):
    """Run ``setup`` ``reps`` times; returns (last result, median seconds)."""
    times = []
    result = None
    for _ in range(reps):
        start = clock()
        result = setup()
        times.append(clock() - start)
    return result, statistics.median(times)


def run_rounds(one_round, seconds: float | None = None, rounds: int | None = None):
    """Closed loop: call ``one_round(i)`` until the budget is spent.

    Stops after ``rounds`` rounds, or at the first round boundary past
    ``seconds`` of wall-clock time, so every run covers whole rounds.
    ``one_round`` returns (items done, CPU seconds they took); the list of
    those pairs is returned.
    """
    done = []
    start = time.perf_counter()
    while (rounds is None and time.perf_counter() - start < seconds) or (
        rounds is not None and len(done) < rounds
    ):
        done.append(one_round(len(done)))
    return done


def median_rate(done) -> float:
    """Items per second, as the median over rounds.

    The machine's speed shifts for seconds at a time; a median over
    rounds ignores such a burst where a total over the run would not.
    """
    return statistics.median(items / seconds for items, seconds in done)


def total_seconds(done) -> float:
    return sum(seconds for _, seconds in done)


def call_summary(call_ms: list[float], log, what: str) -> dict[str, float]:
    """Median and tail of per-call times, with the sample count logged."""
    n = len(call_ms)
    p50 = float(np.percentile(call_ms, 50))
    tail = float(np.percentile(call_ms, TAIL_PERCENTILE))
    beyond = sum(1 for v in call_ms if v > tail)
    log(
        f"{what}: n={n} p50={p50:.3f} ms p{TAIL_PERCENTILE}={tail:.3f} ms"
        f" ({beyond} samples beyond p{TAIL_PERCENTILE})"
    )
    if n < TAIL_MIN_SAMPLES:
        log(f"warning: {n} samples < {TAIL_MIN_SAMPLES}; p{TAIL_PERCENTILE} rests on fewer than ten")
    return {"call_ms_p50": p50, "call_ms_p90": tail}


def in_calls(tracer: Tracer, call_name: str) -> list[bool]:
    """Per span: does it lie inside (or is it) a span named ``call_name``."""
    inside = []
    for _, parent, name, *_ in tracer.spans:
        inside.append(name == call_name or (parent >= 0 and inside[parent]))
    return inside


def span_ms(tracer: Tracer, name: str, within: list[bool] | None = None, **attrs) -> list[float]:
    """Durations in ms of the spans called ``name`` whose attrs match.

    ``within`` (from :func:`in_calls`) keeps only spans inside calls.
    """
    out = []
    for span in tracer.spans:
        if span[2] != name or (within is not None and not within[span[0]]):
            continue
        if all(span[5].get(k) == v for k, v in attrs.items()):
            out.append(1e3 * (span[4] - span[3]))
    return out


def module_metrics(tracer: Tracer, call_name: str) -> dict[str, float]:
    """Per-module self time per call, and the part of a call no child covers.

    A call is a span named ``call_name`` (a train step, an eval call, a
    kernel visit); only spans inside calls count.
    """
    own = tracer.self_times()
    within = in_calls(tracer, call_name)
    n_calls = sum(1 for span in tracer.spans if span[2] == call_name)
    totals = dict.fromkeys(MODULES, 0.0)
    uncovered = 0.0
    for span, self_s, inside in zip(tracer.spans, own, within):
        if not inside:
            continue
        module = span[2].split(".", 1)[0]
        if module in totals:
            totals[module] += 1e3 * self_s
        if span[2] == call_name:
            uncovered += 1e3 * self_s
    metrics = {f"self_ms.{module}": total / n_calls for module, total in totals.items()}
    metrics["call.uncovered_ms"] = uncovered / n_calls
    return metrics


def mean_or_zero(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0
