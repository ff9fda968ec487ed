"""Span tracer for the fisym benchmark.

While installed, every public function of the traced fisym modules is
replaced by a wrapper that records a span, both on its own module and
wherever another module imported it by name (``fisym.tomosim.fidelity``
is the same wrapper as ``fisym.states.fidelity``).  ``fisym.cli.main``
opens a new request.  The listed ``numpy.linalg`` kernels are wrapped as
plain call counters.  ``uninstall`` restores every original attribute.

Private helpers (``_mle_bloch``, ``_linear_bloch`` ...) are not wrapped,
so their time is self time of the public function that calls them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "opfile", "tomosim", "fisher", "povm", "designs", "states",
          "matcore")
LINALG = ("eigh", "eigvalsh", "lstsq", "solve")
REQUEST_SPAN = "cli.main"


class Tracer:
    """Records spans in memory; aggregates calls, self time and errors.

    A span is (name, start, end, parent span index, request id, error).
    Self time is a span's duration minus the time covered by its child
    spans.  ``observe`` maps a span name to a callback that receives the
    wrapped function's return value.
    """

    def __init__(self, observe=None):
        self.observe = dict(observe or {})
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.requests = array("q")
        self.errored = bytearray()
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.linalg_calls: Counter = Counter()
        self._stack: list[list] = []
        self._request = 0
        self._patches: list[tuple] = []
        self._wrappers: dict = {}

    # ----------------------------------------------------------- wrapping

    def _span(self, name, fn):
        is_request = name == REQUEST_SPAN
        observe = self.observe.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            if is_request:
                self._request += 1
            index = len(self.names)
            self.names.append(name)
            self.parents.append(stack[-1][0] if stack else -1)
            self.requests.append(self._request)
            self.ends.append(0.0)
            self.errored.append(0)
            frame = [index, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            self.starts.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, name, start, error=True)
                raise
            self._close(frame, name, start, error=False)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _close(self, frame, name, start, error):
        end = time.perf_counter()
        self._stack.pop()
        index, child_s = frame
        duration = end - start
        self.ends[index] = end
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        if error:
            self.errored[index] = 1
            self.errors[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.linalg_calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        if not self._wrappers:
            for layer in LAYERS:
                module = sys.modules[f"fisym.{layer}"]
                for attr, obj in vars(module).items():
                    if (attr.startswith("_") or not inspect.isfunction(obj)
                            or obj.__module__ != module.__name__):
                        continue
                    self._wrappers[id(obj)] = (
                        obj, self._span(f"{layer}.{attr}", obj))
            for name in LINALG:
                obj = getattr(np.linalg, name)
                self._wrappers[id(obj)] = (obj, self._counter(name, obj))
        modules = [m for key, m in list(sys.modules.items())
                   if key == "fisym" or key.startswith("fisym.")]
        modules.append(np.linalg)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = self._wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            module, attr, obj = self._patches.pop()
            setattr(module, attr, obj)

    # ------------------------------------------------------------ results

    @staticmethod
    def layer(name: str) -> str:
        return name.split(".", 1)[0]

    def layer_totals(self) -> dict:
        """Per layer: calls, self seconds and errors summed over spans."""
        out = {layer: {"calls": 0, "self_s": 0.0, "errors": 0}
               for layer in LAYERS}
        for name, n in self.calls.items():
            agg = out[self.layer(name)]
            agg["calls"] += n
            agg["self_s"] += self.self_s[name]
            agg["errors"] += self.errors[name]
        return out

    def write_spans(self, path) -> int:
        """Write every span as a tab-separated line; returns the count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\trequest\terror\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{name}\t{self.starts[i]:.9f}\t"
                         f"{self.ends[i]:.9f}\t{self.parents[i]}\t"
                         f"{self.requests[i]}\t{self.errored[i]}\n")
        return len(self.names)
