"""Span and count recorder that traces gicl from the outside.

The recorder wraps public functions and methods of the gicl modules at
every name their callers look up: a function imported with ``from .x
import f`` into another module is replaced there too, so calls made
through that binding are seen. Nothing in ``src/gicl`` changes.

Each call becomes a span (name, start, end, parent). Spans nest per
thread; a span opened in a worker thread (the HTTP client's pool) has no
parent, so the caller's span counts the time it waited for the pool.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a root span
    child_s: float = 0.0  # time covered by direct children


@dataclass
class Recorder:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    # results a probe chose to keep, by span name: (span index, value)
    values: dict[str, list[tuple[int, object]]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._suspended = False
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name: str, fn, args, kwargs, probe=None):
        if self._suspended:
            return fn(*args, **kwargs)
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            parent = stack[-1] if stack else -1
            self.spans.append(Span(name, 0.0, 0.0, parent))
        stack.append(index)
        span = self.spans[index]
        span.start = time.perf_counter()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent >= 0:
                self.spans[parent].child_s += span.end - span.start
            if probe is not None:
                kept = probe(self, args, kwargs, result if ok else None, ok)
                if kept is not None:
                    with self._lock:
                        self.values.setdefault(name, []).append((index, kept))

    @contextmanager
    def suspended(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        before, self._suspended = self._suspended, True
        try:
            yield
        finally:
            self._suspended = before

    # -- patching --------------------------------------------------------

    def wrap_function(self, modules, owner, attr: str, name: str, probe=None) -> None:
        """Replace ``owner.attr`` and every module-level alias of it."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, probe)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, traced)

    def wrap_method(self, cls, attr: str, name: str, probe=None) -> None:
        original = getattr(cls, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, probe)

        self._patch(cls, attr, traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- summaries -------------------------------------------------------

    def durations(self) -> dict[str, list[float]]:
        """Span durations by name, in start order."""
        out: dict[str, list[float]] = {}
        for s in self.spans:
            out.setdefault(s.name, []).append(s.end - s.start)
        return out

    def self_time(self, prefix: str) -> float:
        """Total time spans named ``prefix``* spent outside their children."""
        return sum(
            (s.end - s.start) - s.child_s for s in self.spans if s.name.startswith(prefix)
        )
