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
    """The ``(subscripts, a.shape, b.shape)`` of every ``convref._contract`` call."""

    def __init__(self):
        self.calls = []

    def macs(self) -> int:
        """Multiply-adds the recorded calls issued: per call, the product of
        every subscript's extent, each counted once."""
        total = 0
        for subscripts, *shapes in self.calls:
            extents = {}
            for axes, shape in zip(subscripts.split("->")[0].split(","), shapes):
                extents.update(zip(axes, shape))
            total += math.prod(extents.values())
        return total


@pytest.fixture
def contract_spy(monkeypatch):
    """A :class:`ContractSpy` recording every ``convref._contract`` call
    while the test runs, through each module that imported the function."""
    from maskconv import convref

    spy, contract = ContractSpy(), convref._contract

    def recorded(subscripts, a, b, out=None):
        spy.calls.append((subscripts, np.shape(a), np.shape(b)))
        return contract(subscripts, a, b, out=out)

    for name, module in list(sys.modules.items()):
        if name.startswith("maskconv") and getattr(module, "_contract", None) is contract:
            monkeypatch.setattr(module, "_contract", recorded)
    return spy
