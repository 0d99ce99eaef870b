"""Spans around calls to oacm's public functions, kept in memory.

The tracer replaces each traced function, wherever an oacm module binds it
by name, with a wrapper that records a span: name, operation, start, end
and the span that called it.  Counters are read off the arguments and the
result at the same boundary; the time spent reading them is taken out of
the enclosing spans.  With memory on, tracemalloc's peak is recorded per
span as well, relative to the heap in use when the call began.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "paused", "counters", "peak_mb", "_base", "_peak_seen")

    def __init__(self, name, op, parent):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = self.end = 0.0
        self.paused = 0.0
        self.counters = {}
        self.peak_mb = None

    @property
    def seconds(self) -> float:
        return self.end - self.start - self.paused

    def to_json(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "op": self.op,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "seconds": self.seconds,
            "counters": self.counters,
            "peak_mb": self.peak_mb,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self.memory = False
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, targets: dict) -> None:
        """targets maps each function to (span name, counter hook or None)."""
        by_id = {id(fn): (fn, spec) for fn, spec in targets.items()}
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "oacm" or modname.startswith("oacm.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) not in by_id:
                    continue
                fn, (name, hook) = by_id[id(value)]
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, name, hook)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if hook is not None:
                t0 = time.perf_counter()
                span.counters.update(hook(args, kwargs, result))
                self._pause(time.perf_counter() - t0)
            return result

        return traced

    def _enter(self, name) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, self.op, parent)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                outer = self.spans[parent]
                outer._peak_seen = max(outer._peak_seen, peak)
            tracemalloc.reset_peak()
            span._base = current
            span._peak_seen = current
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        if self.memory:
            peak = max(tracemalloc.get_traced_memory()[1], span._peak_seen)
            span.peak_mb = (peak - span._base) / 2**20
            if span.parent is not None:
                outer = self.spans[span.parent]
                outer._peak_seen = max(outer._peak_seen, peak)

    def _pause(self, seconds: float) -> None:
        """Take counter-reading time out of every open span."""
        for index in self._open:
            self.spans[index].paused += seconds
