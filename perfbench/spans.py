"""Span tracing from outside the program.

The traced run wraps public functions and methods of each layer with
:meth:`Tracer.wrap`.  Every call becomes a span; a span's *self time*
is its duration minus the part of it that its child spans cover.
Spans nest per thread, and children are merged as intervals before
they are subtracted, so children that overlap each other are not
subtracted twice.

Only per-name totals are kept (self seconds and call counts), so a
traced run holds no per-call records in memory.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus what its (possibly overlapping)
    children cover."""
    return (end - start) - covered(children, start, end)


class _Span:
    """One span of a :class:`Tracer`, as a context manager.

    A class rather than a generator-based context manager: every traced
    call opens one, and this costs less than half as much per call.
    """

    __slots__ = ("tracer", "name", "start", "children", "stack")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.stack = self.tracer._stack()
        self.children: list = []
        self.stack.append(self)
        self.start = self.tracer.clock()
        return self

    def __exit__(self, *exc) -> None:
        tracer = self.tracer
        end = tracer.clock()
        self.stack.pop()
        if self.stack:
            self.stack[-1].children.append((self.start, end))
        with tracer._lock:
            tracer.self_s[self.name] += self_time(self.start, end,
                                                  self.children)
            tracer.calls[self.name] += 1


class Tracer:
    """Per-name self time and call counts of wrapped callables."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []
        self._functions: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> "_Span":
        """Record a ``with`` block as one span named ``name``."""
        return _Span(self, name)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(args, result)``
        runs once the span is closed (for counters)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a traced version.

        For a module-level function, every loaded ``repro`` module that
        imported the same function object by name is patched too.
        """
        original = owner.__dict__[attr]
        traced = self.wrap(name, original, after)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, traced)
        if not isinstance(owner, type):
            self._functions.append((original, traced))
            self._rebind(original, traced)

    @staticmethod
    def _rebind(old, new) -> None:
        """Point every ``repro`` module's name for ``old`` at ``new``."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("repro"):
                for attr, value in list(vars(module).items()):
                    if value is old:
                        setattr(module, attr, new)

    def restore(self) -> None:
        """Undo every :meth:`patch`, including in modules imported
        since, which picked up a traced function by name."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        while self._functions:
            original, traced = self._functions.pop()
            self._rebind(traced, original)

    def call_cost_s(self, calls: int = 20_000) -> float:
        """Host seconds one traced call adds, measured on a no-op."""

        def noop():
            return None

        probe = Tracer(self.clock)
        traced = probe.wrap("noop", noop)
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        wrapped = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        return max(0.0, (wrapped - plain) / calls)
