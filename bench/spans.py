"""In-memory span tracer that wraps maskconv's public API from outside.

The library carries no instrumentation, so a traced run rebinds every
public function and method of the measured modules to a timing wrapper,
in every ``maskconv`` namespace that holds a reference to it (modules
import each other's functions by name).  :meth:`Tracer.uninstall` puts
the original objects back.

A span is ``[id, parent id, name, start, end, attrs]``.  ``attrs`` are
inherited from the enclosing span, so the benchmark tags its own root
spans (``variant=...``, ``spec=...``) and every library span below them
carries the tag.  The wrappers only read the clock: they touch no
argument, no random state and no output, which keeps traced runs
byte-identical to untraced ones.  Spans are recorded only while the
wrappers are installed.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

PACKAGE = "maskconv"

# Every duration in the benchmark is CPU time of this process.  On a
# shared VM the host steals the vCPU in bursts of seconds; wall-clock time
# counts that and CPU time does not.  For a closed loop in one thread
# with no I/O waits, CPU time is the latency an idle machine would show.
clock = time.process_time

# the measured layers, in the order the reports list them
MODULES = (
    "network",
    "layers",
    "convref",
    "fastinfer",
    "masks",
    "training",
    "checkpoint",
    "idx",
    "datagen",
)


class Tracer:
    """Collects nested spans from a single thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str, attrs: dict | None = None) -> list:
        parent = self._stack[-1] if self._stack else None
        inherited = parent[5] if parent is not None else {}
        span = [
            len(self.spans),
            parent[0] if parent is not None else -1,
            name,
            clock(),
            0.0,
            {**inherited, **attrs} if attrs else inherited,
        ]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[4] = clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[2]} closed out of order")

    def span(self, name: str, **attrs):
        """A benchmark-side span; records nothing while not installed."""
        return self._recording(name, attrs) if self._patched else contextlib.nullcontext()

    @contextlib.contextmanager
    def _recording(self, name: str, attrs: dict):
        span = self.open(name, attrs)
        try:
            yield span
        finally:
            self.close(span)

    # -- wrapping --------------------------------------------------------

    def _wrap_function(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace calls into the library for the duration of the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        """Wrap the public callables of :data:`MODULES` of the imported package."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [
            mod
            for key, mod in sys.modules.items()
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        replacements = {}
        for short in MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacements[id(obj)] = (obj, self._wrap_function(obj, f"{short}.{attr}"))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, f"{short}.{attr}")
        for namespace in namespaces:
            for attr, obj in list(vars(namespace).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((namespace, attr, obj))
                    setattr(namespace, attr, hit[1])

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            self._patched.append((cls, attr, obj))
            setattr(cls, attr, self._wrap_function(obj, f"{prefix}.{attr}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its children cover."""
        own = [span[4] - span[3] for span in self.spans]
        for span in self.spans:
            if span[1] >= 0:
                parent = self.spans[span[1]]
                own[parent[0]] -= span[4] - span[3]
        return own

    def write(self, path) -> None:
        """Write the spans as JSON lines: id, parent, name, start, end, attrs."""
        keys = ("id", "parent", "name", "start", "end", "attrs")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")
