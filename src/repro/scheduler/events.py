"""Arrival/departure event stream for the time-window scheduler.

The scheduler consumes a time-ordered sequence of events: a consumer
request *arrives* at some time (and should be allocated in the next
window) or a hosted request *departs* (its capacity is released).  The
paper's future-work section mentions handling "platform and flow
events (user requests, platform failures, etc.)"; the event model here
covers requests and departures, and a failure event is expressible as
a departure injected by the caller.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from repro.errors import SchedulerError
from repro.model.request import Request

__all__ = [
    "ArrivalEvent",
    "DepartureEvent",
    "ServerFailureEvent",
    "ServerRecoveryEvent",
    "EventQueue",
]


@dataclass(frozen=True)
class ArrivalEvent:
    """A consumer request entering the system at ``time``."""

    time: float
    key: str
    request: Request

    def __post_init__(self) -> None:
        if self.time < 0:
            raise SchedulerError(f"event time must be >= 0, got {self.time}")


@dataclass(frozen=True)
class DepartureEvent:
    """A hosted request leaving (capacity released) at ``time``."""

    time: float
    key: str

    def __post_init__(self) -> None:
        if self.time < 0:
            raise SchedulerError(f"event time must be >= 0, got {self.time}")


@dataclass(frozen=True)
class ServerFailureEvent:
    """Physical server ``server`` goes out of service at ``time``.

    The scheduler removes the server from the usable estate and
    *displaces* every resource hosted on it: affected tenants are
    released and re-enter the current window as re-placement requests
    (their previous assignment priced by the migration objective).
    This realizes the paper's future-work "platform failures" flow
    events.

    ``reason`` distinguishes an unplanned crash (``"failure"``) from a
    planned maintenance *drain* (``"drain"``, forced evacuation before
    servicing the host).  Both are handled identically by the window
    loop — the distinction exists for reporting and telemetry, and the
    drain-then-fail metamorphic law (:mod:`repro.verify.dynamic`)
    proves that a redundant failure of an already-drained server is a
    no-op.
    """

    time: float
    server: int
    reason: str = "failure"

    def __post_init__(self) -> None:
        if self.time < 0:
            raise SchedulerError(f"event time must be >= 0, got {self.time}")
        if self.server < 0:
            raise SchedulerError(f"server id must be >= 0, got {self.server}")
        if self.reason not in ("failure", "drain"):
            raise SchedulerError(
                f"failure reason must be 'failure' or 'drain', got {self.reason!r}"
            )


@dataclass(frozen=True)
class ServerRecoveryEvent:
    """Server ``server`` returns to service at ``time``."""

    time: float
    server: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise SchedulerError(f"event time must be >= 0, got {self.time}")
        if self.server < 0:
            raise SchedulerError(f"server id must be >= 0, got {self.server}")


@dataclass
class EventQueue:
    """Min-heap of events ordered by time (FIFO within equal times)."""

    _heap: list[tuple[float, int, object]] = field(default_factory=list)
    _counter: itertools.count = field(default_factory=itertools.count)

    def push(self, event) -> None:
        """Enqueue one event (any of the event dataclasses above)."""
        heapq.heappush(self._heap, (event.time, next(self._counter), event))

    def pop_until(self, time: float) -> list:
        """Dequeue every event with ``event.time <= time``, in order."""
        out: list = []
        while self._heap and self._heap[0][0] <= time:
            out.append(heapq.heappop(self._heap)[2])
        return out

    def snapshot(self) -> list:
        """Pending events in pop order, without consuming them.

        Used by the scheduler checkpoint: re-pushing the returned list
        into a fresh queue reproduces the original pop order (the FIFO
        counter is re-derived from insertion order).
        """
        return [entry[2] for entry in sorted(self._heap, key=lambda e: e[:2])]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
