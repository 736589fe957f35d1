"""Unit tests for the repro.telemetry subsystem itself (registry,
tracer, events, sinks, config) plus the timer primitives it builds on."""

import json
import time

import pytest

from repro.errors import ValidationError
from repro.telemetry import (
    ConsoleSink,
    EventBus,
    GenerationCompleted,
    HistogramSummary,
    InMemorySink,
    JsonlSink,
    MetricsRegistry,
    MetricsSnapshot,
    RequestRejected,
    Tracer,
    WindowClosed,
    configure,
    get_bus,
    get_registry,
    get_tracer,
    series_key,
    shutdown,
    span,
    use_registry,
)
from repro.utils.timers import Stopwatch
from tests.telemetry_helpers import capture_events, use_tracer


class TestMetricsRegistry:
    def test_counter_accumulates_per_label_series(self):
        registry = MetricsRegistry()
        registry.count("requests", 2, algorithm="nsga3")
        registry.count("requests", 3, algorithm="nsga3")
        registry.count("requests", 5, algorithm="cp")
        snapshot = registry.snapshot()
        assert snapshot.counters[series_key("requests", {"algorithm": "nsga3"})] == 5
        assert snapshot.counters[series_key("requests", {"algorithm": "cp"})] == 5
        assert snapshot.counter_total("requests") == 10

    def test_label_order_does_not_split_series(self):
        registry = MetricsRegistry()
        registry.count("x", 1, a=1, b=2)
        registry.count("x", 1, b=2, a=1)
        assert registry.snapshot().counters == {"x{a=1,b=2}": 2.0}

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("pool", 3)
        registry.gauge("pool", 7)
        assert registry.snapshot().gauges["pool"] == 7

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 3.0):
            registry.observe("latency", value)
        summary = registry.snapshot().histograms["latency"]
        assert summary.count == 3
        assert summary.total == 6.0
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert summary.mean == 2.0

    def test_snapshot_is_immutable_copy(self):
        registry = MetricsRegistry()
        registry.count("x")
        snapshot = registry.snapshot()
        registry.count("x")
        assert snapshot.counters["x"] == 1.0

    def test_merged_snapshot_equals_sum_of_worker_snapshots(self):
        """The parallel-runner contract: folding per-worker snapshots
        is exact summation for counters and histograms."""
        workers = []
        for w in range(3):
            registry = MetricsRegistry()
            registry.count("cells", w + 1, algorithm="ff")
            registry.observe("seconds", 0.5 * (w + 1))
            workers.append(registry.snapshot())

        merged = MetricsSnapshot.merge_all(workers)
        assert merged.counters[series_key("cells", {"algorithm": "ff"})] == 6.0
        assert merged.histograms["seconds"] == HistogramSummary(
            count=3, total=3.0, minimum=0.5, maximum=1.5
        )
        # Associativity: pairwise + equals merge_all.
        pairwise = workers[0] + workers[1] + workers[2]
        assert pairwise.counters == merged.counters
        assert pairwise.histograms == merged.histograms

    def test_registry_merge_folds_snapshot(self):
        parent = MetricsRegistry()
        parent.count("x", 1)
        child = MetricsRegistry()
        child.count("x", 2)
        child.observe("h", 1.0)
        parent.merge(child.snapshot())
        snapshot = parent.snapshot()
        assert snapshot.counters["x"] == 3.0
        assert snapshot.histograms["h"].count == 1

    def test_use_registry_scopes_default(self):
        scoped = MetricsRegistry()
        outside = get_registry()
        with use_registry(scoped):
            assert get_registry() is scoped
            get_registry().count("inside")
        assert get_registry() is outside
        assert "inside" in scoped.snapshot().counters
        assert "inside" not in outside.snapshot().counters

    def test_snapshot_is_empty_until_a_series_is_recorded(self):
        registry = MetricsRegistry()
        assert registry.snapshot().empty
        registry.count("x")
        assert not registry.snapshot().empty

    def test_format_summary_mentions_every_kind(self):
        registry = MetricsRegistry()
        registry.count("c")
        registry.gauge("g", 1)
        registry.observe("h", 2.0)
        text = registry.format_summary()
        assert "counter" in text and "gauge" in text and "histogram" in text


class TestTracer:
    def test_default_tracer_disabled_spans_are_noops(self):
        assert not get_tracer().enabled
        with span("anything", x=1) as record:
            assert record is None
        assert get_tracer().roots == []

    def test_enabled_tracer_builds_tree(self):
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            with span("outer", run=1):
                with span("inner"):
                    time.sleep(0.001)
                with span("inner"):
                    pass
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert outer.name == "outer"
        assert [c.name for c in outer.children] == ["inner", "inner"]
        assert outer.elapsed >= sum(c.elapsed for c in outer.children)
        assert outer.self_time >= -1e-9
        # Children started after their predecessors, offsets ascend.
        offsets = [c.start_offset for c in outer.children]
        assert offsets == sorted(offsets)
        assert all(o >= 0 for o in offsets)

    def test_walk_yields_spans_with_their_attributes(self):
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            with span("a"):
                with span("b", gen=3):
                    pass
        records = list(tracer.roots[0].walk())
        assert [record.name for record in records] == ["a", "b"]
        assert [record.attributes for record in records] == [{}, {"gen": 3}]


class TestEventBus:
    def test_emit_without_sinks_is_noop(self):
        bus = EventBus()
        assert not bus.enabled
        bus.emit(RequestRejected(key="a", window_index=0, reason="capacity"))

    def test_sink_receives_in_order(self):
        bus = EventBus()
        sink = InMemorySink()
        bus.subscribe(sink)
        assert bus.enabled
        first = RequestRejected(key="a", window_index=0, reason="capacity")
        second = WindowClosed(
            window_index=0, start_time=0.0, end_time=1.0, arrivals=1,
            departures=0, accepted=0, rejected=1, displaced=0, failures=0,
            recoveries=0,
        )
        bus.emit(first)
        bus.emit(second)
        assert sink.events == [first, second]
        assert sink.of(WindowClosed) == [second]
        bus.unsubscribe(sink)
        assert not bus.enabled

    def test_subscribe_idempotent_unsubscribe_tolerant(self):
        bus = EventBus()
        sink = InMemorySink()
        bus.subscribe(sink)
        bus.subscribe(sink)
        assert bus._sinks.count(sink) == 1
        bus.unsubscribe(sink)
        bus.unsubscribe(sink)  # no raise

    def test_capture_events_detaches_on_exit(self):
        event = RequestRejected(key="k", window_index=1, reason="capacity")
        with capture_events() as sink:
            get_bus().emit(event)
        assert sink.events == [event]
        assert not get_bus().enabled

    def test_event_to_dict_roundtrips_json(self):
        event = GenerationCompleted(
            algorithm="nsga3", generation=4, evaluations=100,
            best_aggregate=1.5, mean_aggregate=2.5, feasible_fraction=0.75,
            min_violations=0,
        )
        payload = json.loads(json.dumps(event.to_dict()))
        assert payload["event"] == "generation_completed"
        assert payload["generation"] == 4


class TestSinksAndConfig:
    def test_jsonl_sink_writes_parseable_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        sink.handle(RequestRejected(key="a", window_index=2, reason="displaced"))
        sink.close()
        [line] = path.read_text().splitlines()
        payload = json.loads(line)
        assert payload["event"] == "request_rejected"
        assert payload["reason"] == "displaced"
        assert "ts" in payload

    def test_console_sink_formats_line(self, capsys):
        import sys

        sink = ConsoleSink(stream=sys.stdout)
        sink.handle(RequestRejected(key="a", window_index=0, reason="capacity"))
        out = capsys.readouterr().out
        assert "[telemetry] request_rejected" in out
        assert "key=a" in out

    def test_configure_off_and_none(self):
        assert configure(None) is None
        assert configure("off") is None

    def test_configure_jsonl_and_shutdown(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = configure(f"jsonl:{path}")
        try:
            assert get_bus().enabled
            get_bus().emit(
                RequestRejected(key="x", window_index=0, reason="capacity")
            )
        finally:
            shutdown(sink)
        assert not get_bus().enabled
        assert path.read_text().count("\n") == 1

    def test_configure_console_and_memory(self):
        for spec in ("console", "memory"):
            sink = configure(spec)
            try:
                assert get_bus().enabled
            finally:
                shutdown(sink)

    def test_configure_rejects_bad_specs(self):
        with pytest.raises(ValidationError):
            configure("jsonl:")
        with pytest.raises(ValidationError):
            configure("statsd:localhost")


class TestTimerPrimitives:
    def test_split_returns_in_flight_lap(self):
        stopwatch = Stopwatch().start()
        first = stopwatch.split()
        time.sleep(0.002)
        second = stopwatch.split()
        assert second > first >= 0.0
        assert stopwatch.split() >= second  # split does not stop

    def test_split_excludes_previous_segments(self):
        stopwatch = Stopwatch()
        stopwatch.start()
        time.sleep(0.002)
        stopwatch.stop()
        assert stopwatch.split() == 0.0  # stopped: no in-flight lap
        stopwatch.start()
        assert stopwatch.split() < stopwatch.elapsed
