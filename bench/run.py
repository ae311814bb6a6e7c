#!/usr/bin/env python3
"""Benchmark of the maskconv library, one workload per invocation.

Run from the root of a source checkout::

    python3 bench/run.py --workload train-digits --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace
1`` wraps the library's public API in spans and reports the per-layer
metrics instead.  Informational lines go to stdout first; the last line
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The metric names and units are those of
``BENCHMARK.json``.  Spans, provenance and the result are also written
under ``.bench_out/`` in the checkout; the generated data and
checkpoints are deleted at exit.

Exit codes: 0 success, 1 the workload raised, 2 bad arguments or no
``src/maskconv`` to measure, 3 the metrics do not match ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("train-digits", "eval-digits", "layer-kernels")


def _cap_blas_threads() -> int:
    """Cap BLAS/OpenMP pools at the CPUs this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = nproc
        os.environ[var] = str(min(max(current, 1), nproc))
    return nproc


def _pin_malloc() -> str:
    """Fix glibc's mmap and trim thresholds; returns what was set.

    By default glibc raises its mmap threshold after the first large free,
    and whether later large temporaries come back page-faulted then
    depends on the heap's layout, which differs from run to run.  With
    large blocks kept on a heap that is never trimmed, every run reuses
    resident memory the same way.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return "unchanged (no mallopt)"
    m_trim_threshold, m_mmap_threshold = -1, -3
    ok = mallopt(m_mmap_threshold, 32 << 20) and mallopt(m_trim_threshold, 1 << 30)
    return "mmap_threshold=32MiB trim_threshold=1GiB" if ok else "unchanged (mallopt failed)"


def _git_sha() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cache_size(level: int) -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == str(level) and (
                index / "type"
            ).read_text().strip() in ("Unified", "Data"):
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return "unknown"


def _provenance(args, nproc: int, malloc: str) -> dict:
    import numpy as np

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "maskconv").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(ROOT).as_posix().encode())
            src.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
        "l2": _cache_size(2),
        "l3": _cache_size(3),
        "machine": platform.machine(),
        "malloc": malloc,
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    nproc = _cap_blas_threads()
    malloc = _pin_malloc()
    # numpy asks for transparent huge pages on arrays >= 4 MB; whether the
    # host has them free varied eval call times and RSS between runs
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    src = ROOT / "src"
    if not (src / "maskconv" / "__init__.py").is_file():
        print(f"error: no maskconv sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import maskconv

    if Path(maskconv.__file__).resolve().parent != src / "maskconv":
        print(f"error: imported maskconv from {maskconv.__file__}, not {src}", file=sys.stderr)
        return 2

    from common import Checks, Context

    import digits
    import kernels

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    provenance = _provenance(args, nproc, malloc)
    print("provenance " + json.dumps(provenance), flush=True)

    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = Context(
        seed=args.seed,
        seconds=args.seconds,
        traced=bool(args.trace),
        workdir=workdir,
        checks=Checks(),
        log=lambda line: print(line, flush=True),
    )
    run = {
        "train-digits": digits.train_digits,
        "eval-digits": digits.eval_digits,
        "layer-kernels": kernels.layer_kernels,
    }[args.workload]
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        measured = run(ctx)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir / "data", ignore_errors=True)

    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    print(f"process CPU {cpu:.2f} s over {wall:.2f} s wall ({100 * cpu / wall:.1f}%); timings are CPU time")
    if not args.trace:
        measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    unknown = sorted(set(measured) - set(units))
    if unknown:
        print(f"error: metrics missing from BENCHMARK.json {section}: {unknown}", file=sys.stderr)
        return 3
    missing = [name for name in units if name not in measured]
    if missing and not args.trace:
        print(f"error: end-to-end metrics not measured: {missing}", file=sys.stderr)
        return 3
    if missing:
        print(f"{len(missing)} per-layer metrics belong to other workloads; reported as 0")

    checks = ctx.checks
    for message in checks.messages:
        print(f"FAILED CHECK: {message}")
    result = {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": float(measured.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }
    if args.trace:
        ctx.tracer.write(workdir / "spans.jsonl")
    (workdir / "result.json").write_text(
        json.dumps({"provenance": provenance, **result}, indent=1) + "\n"
    )
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
