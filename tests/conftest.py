import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

# make tests/oracles.py importable regardless of rootdir
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def traced_peak():
    """``measure(call)``: ``call()``'s result and the bytes it had allocated at its peak.

    numpy reports its buffers to tracemalloc, so the peak counts every
    array the call held at once, whatever the heap layout, which RSS does
    not.  Allocations made before the call do not count.
    """

    def measure(call):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        return result, peak

    return measure


class ContractSpy:
    """The ``(subscripts, a.shape, b.shape)`` of every product the conv core
    and the dense head issue: each ``convref._contract`` call and each
    ``convref._blas_contract`` call, which counts once even where it runs
    ``_contract`` itself."""

    def __init__(self):
        self.calls = []
        self.depth = 0

    def macs_each(self) -> list[int]:
        """Multiply-adds of each recorded call: the product of every
        subscript's extent, each counted once."""
        each = []
        for subscripts, *shapes in self.calls:
            extents = {}
            for axes, shape in zip(subscripts.split("->")[0].split(","), shapes):
                extents.update(zip(axes, shape))
            each.append(math.prod(extents.values()))
        return each

    def macs(self) -> int:
        """Multiply-adds the recorded calls issued."""
        return sum(self.macs_each())

    def recording(self, product):
        def recorded(subscripts, a, b, out=None):
            if not self.depth:
                self.calls.append((subscripts, np.shape(a), np.shape(b)))
            self.depth += 1
            try:
                return product(subscripts, a, b, out=out)
            finally:
                self.depth -= 1

        return recorded


@pytest.fixture
def contract_spy(monkeypatch):
    """A :class:`ContractSpy` recording every ``convref._contract`` and
    ``convref._blas_contract`` call while the test runs, through each
    module that imported the functions."""
    from maskconv import convref

    spy = ContractSpy()
    products = {id(f): spy.recording(f) for f in (convref._contract, convref._blas_contract)}
    for name, module in list(sys.modules.items()):
        if not name.startswith("maskconv"):
            continue
        for attr in ("_contract", "_blas_contract"):
            recorded = products.get(id(getattr(module, attr, None)))
            if recorded is not None:
                monkeypatch.setattr(module, attr, recorded)
    return spy


@pytest.fixture
def einsum_backward(monkeypatch):
    """Run the backward's products on ``convref._contract``, the einsum path
    of a numpy that bundles no OpenBLAS, for tests that pin its bits:
    OpenBLAS's own bits change with the matrix shape and its runtime kernel."""
    from maskconv import convref

    monkeypatch.setattr(convref, "_OPENBLAS", None)
