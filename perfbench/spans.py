"""Spans and counters at the layer boundaries of gossipfresh.

The tracer patches, from outside, the module-level names through which one
layer calls the next (``cli.run_experiment``, ``experiments.oracle_flat``,
``analytic.renewal_freshness``, ``simulator.per_stale_rate``, ...).  Python
looks these names up in the caller's module globals at call time, so the
patched wrapper sees every call that crosses the boundary and nothing in
``src/`` changes.  :meth:`Tracer.uninstall` puts the originals back.

Two kinds of wrapper exist:

* a *span* records name, start, end, the op it belongs to and its parent
  span; a span's self time is its duration minus the time its child spans
  and counters cover;
* a *counter* only adds one call and its busy time to an aggregate.  It is
  for hot boundaries (``per_stale_rate``, ``TrajectorySim.step``) where a
  span per call would cost more than the call.  Counters must not nest in
  each other: their busy time is charged to the enclosing span as child
  time.

Spans are kept in memory and aggregated when the run ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    op_id: int
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    units: float = 0.0  # rows written, recursion steps or cycles, by span name

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Counter:
    calls: int = 0
    busy_s: float = 0.0


class Tracer:
    """Collects spans and counters for one traced pass of an op list."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, Counter] = {}
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._op_id = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, units: float = 0.0) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, self._op_id, name, time.perf_counter(), units=units)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration

    @contextmanager
    def op(self, name: str):
        """Root span of one benchmark op; its descendants share its op id."""
        self._op_id += 1
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def span_wrapper(self, fn, describe):
        """Wrap ``fn`` in a span; ``describe(args, kwargs)`` gives
        ``(name, units)`` for the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name, units = describe(args, kwargs)
            span = tracer._open(name, units)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        return traced

    def counter_wrapper(self, fn, name: str):
        """Wrap ``fn`` in an aggregate call/busy-time counter."""
        counter = self.counters.setdefault(name, Counter())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                counter.calls += 1
                counter.busy_s += dt
                if stack:
                    stack[-1].child_s += dt

        return counted

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` by ``wrapper(original)`` until uninstall.

        ``owner`` is a module or a class; for a class the attribute is read
        from its ``__dict__`` so a plain function stays a plain function.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapped = wrapper(original)
        self._patches.append((owner, attr, original, wrapped))
        setattr(owner, attr, wrapped)

    @contextmanager
    def suspended(self):
        """Put the originals back for a while, so that work done outside
        the measured ops (such as checking their outputs) is not recorded."""
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        try:
            yield
        finally:
            for owner, attr, _, wrapped in self._patches:
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, _ = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def named(self, *names: str) -> list[Span]:
        wanted = set(names)
        return [s for s in self.spans if s.name in wanted]

    def outermost(self, *names: str) -> list[Span]:
        """Spans with one of ``names`` whose parent has none of them, so
        nested calls of the same family are counted once."""
        wanted = set(names)
        by_id = self.spans
        return [
            s
            for s in self.spans
            if s.name in wanted and (s.parent_id is None or by_id[s.parent_id].name not in wanted)
        ]

    def counter(self, name: str) -> Counter:
        return self.counters.get(name, Counter())


def total(spans, attr: str = "duration") -> float:
    return sum(getattr(s, attr) for s in spans)
