"""repro.telemetry — metrics, tracing and event instrumentation.

The measurement substrate under the allocation stack, in three parts
(each zero-cost when unconfigured):

* :mod:`~repro.telemetry.registry` — labeled counters / gauges /
  histograms with picklable snapshots that merge across worker
  processes (:class:`MetricsRegistry`, :func:`get_registry`,
  :func:`use_registry`);
* :mod:`~repro.telemetry.tracer` — span-based hierarchical timing
  built on :class:`~repro.utils.timers.Stopwatch` (:func:`span`,
  :class:`Tracer`);
* :mod:`~repro.telemetry.events` / :mod:`~repro.telemetry.sinks` —
  typed events (GenerationCompleted, RepairInvoked, TabuIteration,
  WindowClosed, RequestRejected, MigrationPlanned) fanned out to
  pluggable sinks (in-memory, JSONL file, console).

Operator entry point: :func:`configure` ("console", "jsonl:PATH"),
wired to the CLI's ``--telemetry`` flag.  The event catalog and usage
guide live in ``docs/OBSERVABILITY.md``.
"""

from repro.telemetry.config import configure, shutdown
from repro.telemetry.events import (
    EventBus,
    GenerationCompleted,
    MigrationPlanned,
    RepairInvoked,
    RequestRejected,
    TabuIteration,
    TelemetryEvent,
    WindowClosed,
    get_bus,
)
from repro.telemetry.registry import (
    HistogramSummary,
    MetricsRegistry,
    MetricsSnapshot,
    get_registry,
    series_key,
    set_registry,
    use_registry,
)
from repro.telemetry.sinks import (
    ConsoleSink,
    InMemorySink,
    JsonlSink,
    Sink,
)
from repro.telemetry.tracer import (
    SpanRecord,
    Tracer,
    get_tracer,
    set_tracer,
    span,
)

__all__ = [
    # registry
    "MetricsRegistry",
    "MetricsSnapshot",
    "HistogramSummary",
    "series_key",
    "get_registry",
    "set_registry",
    "use_registry",
    # tracer
    "Tracer",
    "SpanRecord",
    "span",
    "get_tracer",
    "set_tracer",
    # events
    "TelemetryEvent",
    "GenerationCompleted",
    "RepairInvoked",
    "TabuIteration",
    "WindowClosed",
    "RequestRejected",
    "MigrationPlanned",
    "EventBus",
    "get_bus",
    # sinks
    "Sink",
    "InMemorySink",
    "JsonlSink",
    "ConsoleSink",
    # config
    "configure",
    "shutdown",
]
