"""Bounded reading of the package's binary formats.

The two formats the package reads, checkpoints and IDX files, declare
sizes in their own headers.  :class:`Reader` hands out a declared size
only after checking that the bytes are there, so a short file that
declares gigabytes fails with its format's own error and nothing is
allocated beyond the bytes the file holds.
"""

from __future__ import annotations

import math
import struct

import numpy as np


class Reader:
    """A checked cursor over one file's bytes; short reads raise ``error``."""

    def __init__(self, data: bytes, error: type[Exception], name: str):
        self.data = memoryview(data)
        self.error = error
        self.name = name
        self.offset = 0

    @property
    def left(self) -> int:
        return len(self.data) - self.offset

    def take(self, size: int, what: str) -> memoryview:
        if size > self.left:
            raise self.error(
                f"{self.name}: truncated {what} at offset {self.offset} "
                f"(wanted {size} bytes, {self.left} left)"
            )
        chunk = self.data[self.offset : self.offset + size]
        self.offset += size
        return chunk

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, shape: tuple[int, ...], dtype, what: str) -> np.ndarray:
        """A read-only ``shape`` array viewing the next bytes as ``dtype``."""
        size = math.prod(shape) * np.dtype(dtype).itemsize
        return np.frombuffer(self.take(size, what), dtype=dtype).reshape(shape)

    def end(self) -> None:
        """Raise unless every byte has been read."""
        if self.left:
            raise self.error(f"{self.name}: trailing bytes: parsed {self.offset} of {len(self.data)}")
