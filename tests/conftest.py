import sys
import tracemalloc
from pathlib import Path

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
