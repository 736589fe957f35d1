"""Typed telemetry events and the bus that fans them out to sinks.

Every interesting decision point of the allocation stack emits one of
a small catalog of frozen dataclass events (the catalog is documented
for humans in ``docs/OBSERVABILITY.md``):

* :class:`GenerationCompleted` — one NSGA generation finished
  (``ea/nsga_base.py``; generation 0 is the evaluated initial
  population);
* :class:`RepairInvoked` — a repair engine treated one infeasible
  genome (tabu or CP repair);
* :class:`TabuIteration` — one iteration of the standalone tabu
  search accepted (or failed to find) a move;
* :class:`WindowClosed` — the time-window scheduler finished a window;
* :class:`RequestRejected` — a consumer request could not be placed in
  its window;
* :class:`MigrationPlanned` — a reconfiguration cycle produced an
  X^t -> X^{t+1} plan.

The default :class:`EventBus` has **no sinks**, and every emit site is
guarded by ``bus.enabled`` — with telemetry off the hot paths pay one
attribute check, nothing more.  Sinks (see :mod:`repro.telemetry.sinks`)
subscribe to the default bus via :func:`get_bus` or the CLI's
``--telemetry`` flag.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar

__all__ = [
    "TelemetryEvent",
    "GenerationCompleted",
    "RepairInvoked",
    "TabuIteration",
    "WindowClosed",
    "RequestRejected",
    "MigrationPlanned",
    "EventBus",
    "get_bus",
]


@dataclass(frozen=True)
class TelemetryEvent:
    """Base class; ``name`` is the stable wire identifier of the type."""

    name: ClassVar[str] = "event"

    def to_dict(self) -> dict:
        """Flat JSON-ready payload: ``{"event": name, **fields}``."""
        return {"event": self.name, **asdict(self)}


@dataclass(frozen=True)
class GenerationCompleted(TelemetryEvent):
    """One NSGA generation evaluated and selected."""

    name: ClassVar[str] = "generation_completed"

    algorithm: str
    generation: int
    evaluations: int
    best_aggregate: float
    mean_aggregate: float
    feasible_fraction: float
    min_violations: int


@dataclass(frozen=True)
class RepairInvoked(TelemetryEvent):
    """A repair engine processed one infeasible genome."""

    name: ClassVar[str] = "repair_invoked"

    repairer: str  # "tabu" or "cp"
    moves: int  # relocations performed (0 for a failed CP repair)
    repaired: bool  # whether the genome came back feasible


@dataclass(frozen=True)
class TabuIteration(TelemetryEvent):
    """One iteration of the standalone tabu search."""

    name: ClassVar[str] = "tabu_iteration"

    iteration: int
    moves_evaluated: int
    accepted: bool
    best_violations: int
    best_aggregate: float


@dataclass(frozen=True)
class WindowClosed(TelemetryEvent):
    """The scheduler closed one cyclic time window."""

    name: ClassVar[str] = "window_closed"

    window_index: int
    start_time: float
    end_time: float
    arrivals: int
    departures: int
    accepted: int
    rejected: int
    displaced: int
    failures: int
    recoveries: int
    drains: int = 0


@dataclass(frozen=True)
class RequestRejected(TelemetryEvent):
    """A consumer request could not be hosted in its window."""

    name: ClassVar[str] = "request_rejected"

    key: str
    window_index: int
    reason: str  # "capacity" (fresh arrival) or "displaced" (failure victim)


@dataclass(frozen=True)
class MigrationPlanned(TelemetryEvent):
    """A reconfiguration cycle produced a migration plan."""

    name: ClassVar[str] = "migration_planned"

    tenants: int
    moves: int
    boots: int
    shutdowns: int
    cost: float
    applied: bool


class EventBus:
    """Fans emitted events out to subscribed sinks, synchronously.

    A sink is any object with ``handle(event)``; see
    :mod:`repro.telemetry.sinks`.  Emission order is program order —
    sinks observe events exactly as the instrumented code produced
    them, which the scheduler tests rely on.
    """

    def __init__(self) -> None:
        self._sinks: list = []

    @property
    def enabled(self) -> bool:
        """True when at least one sink is subscribed."""
        return bool(self._sinks)

    def subscribe(self, sink) -> None:
        """Attach a sink (idempotent)."""
        if sink not in self._sinks:
            self._sinks.append(sink)

    def unsubscribe(self, sink) -> None:
        """Detach a sink; missing sinks are ignored."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    def emit(self, event: TelemetryEvent) -> None:
        """Deliver one event to every sink, in subscription order."""
        for sink in self._sinks:
            sink.handle(event)


# ----------------------------------------------------------------------
# Process-default bus (no sinks: emits are skipped at the call sites)
# ----------------------------------------------------------------------
_default_bus = EventBus()


def get_bus() -> EventBus:
    """The process-default event bus."""
    return _default_bus
