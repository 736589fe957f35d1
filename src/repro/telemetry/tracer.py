"""Span-based tracing: hierarchical wall-clock timing trees.

A *span* is one named, timed region of execution, possibly with
children::

    with span("nsga3.generation", gen=i):
        ...

Spans are built on :class:`~repro.utils.timers.Stopwatch` — each span
carries its own stopwatch, and a child's ``start_offset`` is the
parent stopwatch's in-flight lap (:meth:`Stopwatch.split`) at entry,
so a rendered trace shows *when* within its parent each child began.

The default tracer is **disabled**: :func:`span` then returns a shared
no-op context manager, so instrumentation in hot loops costs one
attribute check per call.  Enable tracing by installing an enabled
:class:`Tracer` (``set_tracer(Tracer(enabled=True))``) and read the
recorded forest from :attr:`Tracer.roots`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.utils.timers import Stopwatch

__all__ = [
    "SpanRecord",
    "Tracer",
    "span",
    "get_tracer",
    "set_tracer",
]


@dataclass
class SpanRecord:
    """One completed (or in-flight) span of the timing tree."""

    name: str
    attributes: dict = field(default_factory=dict)
    start_offset: float = 0.0  # seconds into the parent span (or trace)
    elapsed: float = 0.0
    children: list["SpanRecord"] = field(default_factory=list)

    @property
    def self_time(self) -> float:
        """Time spent in this span outside any child span."""
        return self.elapsed - sum(child.elapsed for child in self.children)

    def walk(self) -> Iterator["SpanRecord"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()


class Tracer:
    """Collects spans into a forest of :class:`SpanRecord` trees.

    Single-threaded by design (one tracer per worker/process): the
    span stack is plain instance state.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = bool(enabled)
        self.roots: list[SpanRecord] = []
        self._stack: list[tuple[SpanRecord, Stopwatch]] = []

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attributes) -> Iterator[SpanRecord | None]:
        """Open a span as the child of the innermost active span."""
        if not self.enabled:
            yield None
            return
        offset = self._stack[-1][1].split() if self._stack else 0.0
        record = SpanRecord(
            name=name, attributes=dict(attributes), start_offset=offset
        )
        if self._stack:
            self._stack[-1][0].children.append(record)
        else:
            self.roots.append(record)
        stopwatch = Stopwatch().start()
        self._stack.append((record, stopwatch))
        try:
            yield record
        finally:
            record.elapsed = stopwatch.stop()
            self._stack.pop()


# ----------------------------------------------------------------------
# Process-default tracer (disabled: spans are no-ops)
# ----------------------------------------------------------------------
_default_tracer = Tracer(enabled=False)


@contextmanager
def _null_span() -> Iterator[None]:
    yield None


def get_tracer() -> Tracer:
    """The process-default tracer."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Replace the default tracer; returns the previous one."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer
    return previous


def span(name: str, **attributes):
    """Open a span on the default tracer (no-op when disabled)."""
    tracer = _default_tracer
    if not tracer.enabled:
        return _null_span()
    return tracer.span(name, **attributes)
