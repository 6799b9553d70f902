"""In-memory spans around calls into memflow's public functions.

A span records (id, name, start, end, parent span, run id).  Spans are
kept in a list while the benchmark runs and written out once at the end.
Wrapping replaces a module attribute for the lifetime of a ``with
tracer.wrapped(...)`` block, so the program itself is never edited.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent, run)
        self.run_id = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # reserve the id; filled in on exit
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent, self.run_id)

    def traced(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def wrapped(self, targets):
        """Wrap ``(module, attribute, span name)`` targets for the block."""
        saved = []
        try:
            for module, attr, name in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.traced(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # ---- derived quantities -------------------------------------------

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span with this name."""
        return [(s[3] - s[2]) * 1e-9 for s in self.spans if s[1] == name]

    def self_times(self, name: str) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        child_ns: dict[int, int] = {}
        for s in self.spans:
            if s[4] is not None:
                child_ns[s[4]] = child_ns.get(s[4], 0) + (s[3] - s[2])
        return [(s[3] - s[2] - child_ns.get(s[0], 0)) * 1e-9 for s in self.spans if s[1] == name]

    def per_run_total(self, name: str) -> dict[int, float]:
        out: dict[int, float] = {}
        for s in self.spans:
            if s[1] == name:
                out[s[5]] = out.get(s[5], 0.0) + (s[3] - s[2]) * 1e-9
        return out

    def write(self, path) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "run")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


@contextlib.contextmanager
def captured(module, attr: str, sink: list):
    """Pass-through wrapper that appends each call's (args, kwargs, result)."""
    original = getattr(module, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append((args, kwargs, result))
        return result

    setattr(module, attr, wrapper)
    try:
        yield sink
    finally:
        setattr(module, attr, original)
