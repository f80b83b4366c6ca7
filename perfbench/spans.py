"""Span tracing around the layer calls that smi.cli makes.

`Tracer.install(smi.cli)` swaps every public function that smi.cli
references by name (its own and those it imports from the other smi
modules) for a wrapper that records a span, then the real `run()` and
`main()` are called as usual. Nothing in the program is re-implemented:
the wrappers only time and forward. A span's layer is the module the
wrapped function lives in, so `pca.eigendecompose` is `pca`.

Spans stay in memory (name, start, end, parent, operation) and are
written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self, watch: set[str] = frozenset()) -> None:
        self.spans: list[dict] = []
        # operation id stamped on new spans, so spans of one operation share it
        self.op = 0
        # (name, args, result) of every call to a watched span name; examined
        # after the operation so that checking never lands inside a span
        self.watch = set(watch)
        self.calls: list[tuple[str, tuple, object]] = []
        self._stack: list[int] = []
        self._saved: dict[str, object] = {}
        self._module = None

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "op": self.op,
                    "parent": self._stack[-1] if self._stack else None,
                    "start_ns": time.perf_counter_ns(), "end_ns": None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns()
                self._stack.pop()
            if name in self.watch:
                self.calls.append((name, args, result))
            return result

        return traced

    def begin(self, op: int) -> None:
        """Start an operation: its spans carry `op`, and watched calls start afresh."""
        self.op = op
        self.calls = []

    def install(self, module) -> None:
        """Replace the module's public smi functions by traced wrappers."""
        self._module = module
        self._saved = {
            attr: value for attr, value in vars(module).items()
            if inspect.isfunction(value) and not attr.startswith("_")
            and value.__module__.startswith("smi.")
        }
        for attr, value in self._saved.items():
            setattr(module, attr, self._wrap(value))

    def uninstall(self) -> None:
        for attr, value in self._saved.items():
            setattr(self._module, attr, value)
        self._saved = {}

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per operation, per span name, the summed self time in ms.

        Self time is a span's duration minus its direct children's; calls
        are nested and single-threaded, so children never overlap.
        """
        child_ns: dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, s in enumerate(self.spans):
            out[s["op"]][s["name"]] += (s["end_ns"] - s["start_ns"] - child_ns[i]) / 1e6
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)
            fh.write("\n")
