"""Scopes that let a test read what the telemetry layer records.

The library installs its default bus and tracer once per process; a
test borrows them for one ``with`` block and leaves them as it found
them.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.telemetry import InMemorySink, Tracer, get_bus, set_tracer


@contextmanager
def capture_events() -> Iterator[InMemorySink]:
    """Subscribe an in-memory sink to the default bus for the block::

        with capture_events() as sink:
            scheduler.run_window()
        assert sink.of(WindowClosed)
    """
    sink = InMemorySink()
    bus = get_bus()
    bus.subscribe(sink)
    try:
        yield sink
    finally:
        bus.unsubscribe(sink)


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Scope ``tracer`` as the default for the ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
