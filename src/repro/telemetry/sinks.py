"""Event sinks: where emitted telemetry events end up.

Three concrete sinks cover the common needs:

* :class:`InMemorySink` — a list, for tests and programmatic analysis;
* :class:`JsonlSink` — one JSON object per line, for offline tooling;
* :class:`ConsoleSink` — human-readable lines on a stream.

To discard events, leave the bus empty: the instrumented code then
skips emitting entirely.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.telemetry.events import TelemetryEvent

__all__ = ["Sink", "InMemorySink", "JsonlSink", "ConsoleSink"]


class Sink:
    """Base sink: subclasses override :meth:`handle`."""

    def handle(self, event: TelemetryEvent) -> None:
        """Receive one event (synchronously, in emission order)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (files, streams); idempotent."""


class InMemorySink(Sink):
    """Accumulates events in a list (``.events``)."""

    def __init__(self) -> None:
        self.events: list[TelemetryEvent] = []

    def handle(self, event: TelemetryEvent) -> None:
        """Append the event to the in-memory list."""
        self.events.append(event)

    def of(self, event_type: type) -> list[TelemetryEvent]:
        """The captured events of one type, in emission order."""
        return [e for e in self.events if isinstance(e, event_type)]

    def clear(self) -> None:
        """Forget everything captured so far."""
        self.events.clear()


class JsonlSink(Sink):
    """Appends one JSON object per event to a file.

    Each line is the event's :meth:`~TelemetryEvent.to_dict` payload
    plus a ``ts`` wall-clock field.  Lines are flushed per event so a
    crashed or killed run still leaves a readable log.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._handle = self.path.open("a", encoding="utf-8")

    def handle(self, event: TelemetryEvent) -> None:
        """Write the event as one JSON line."""
        payload = event.to_dict()
        payload["ts"] = time.time()
        self._handle.write(json.dumps(payload) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Flush and close the underlying file."""
        if not self._handle.closed:
            self._handle.close()


class ConsoleSink(Sink):
    """Writes ``[telemetry] event_name key=value ...`` lines."""

    def __init__(self, stream=None) -> None:
        self._stream = stream if stream is not None else sys.stderr

    def handle(self, event: TelemetryEvent) -> None:
        """Print the event to the configured stream."""
        payload = event.to_dict()
        name = payload.pop("event")
        fields = " ".join(
            f"{key}={value:.6g}" if isinstance(value, float) else f"{key}={value}"
            for key, value in payload.items()
        )
        print(f"[telemetry] {name} {fields}", file=self._stream)
