"""Unit tests for the arrival-trace generator and its scheduler wiring."""

import pytest

from repro.baselines import FirstFitAllocator
from repro.errors import ValidationError
from repro.scheduler import TimeWindowScheduler, scenario_metrics
from repro.workloads import ScenarioSpec, TraceGenerator, TraceSpec


@pytest.fixture
def scenario_spec():
    return ScenarioSpec(servers=16, datacenters=2, vms=32, tightness=0.5)


class TestTraceSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            TraceSpec(horizon=0)
        with pytest.raises(ValidationError):
            TraceSpec(arrival_rate=0)
        with pytest.raises(ValidationError):
            TraceSpec(mean_lifetime=-1)
        with pytest.raises(ValidationError):
            TraceSpec(failure_rate=-0.1)


class TestTraceGeneration:
    def test_events_within_horizon(self, scenario_spec):
        trace, requests = TraceGenerator(
            TraceSpec(horizon=8.0, arrival_rate=3.0), scenario_spec, seed=0
        ).generate()
        assert all(e.time < 8.0 for e in trace.arrivals)
        assert len(requests) == len(trace.arrivals)
        # Departures always after their arrival.
        arrival_times = {e.key: e.time for e in trace.arrivals}
        for departure in trace.departures:
            assert departure.time > arrival_times[departure.key]

    def test_deterministic(self, scenario_spec):
        spec = TraceSpec(horizon=6.0, arrival_rate=2.0)
        a, _ = TraceGenerator(spec, scenario_spec, seed=7).generate()
        b, _ = TraceGenerator(spec, scenario_spec, seed=7).generate()
        assert len(a) == len(b)
        assert [e.time for e in a.arrivals] == [e.time for e in b.arrivals]

    def test_arrival_count_tracks_rate(self, scenario_spec):
        slow, _ = TraceGenerator(
            TraceSpec(horizon=10.0, arrival_rate=1.0), scenario_spec, seed=1
        ).generate()
        fast, _ = TraceGenerator(
            TraceSpec(horizon=10.0, arrival_rate=6.0), scenario_spec, seed=1
        ).generate()
        assert len(fast.arrivals) > len(slow.arrivals)

    def test_infinite_lifetime_disables_departures(self, scenario_spec):
        trace, _ = TraceGenerator(
            TraceSpec(horizon=5.0, arrival_rate=2.0, mean_lifetime=float("inf")),
            scenario_spec,
            seed=2,
        ).generate()
        assert trace.departures == []

    def test_failures_paired_with_recoveries(self, scenario_spec):
        trace, _ = TraceGenerator(
            TraceSpec(horizon=10.0, arrival_rate=1.0, failure_rate=0.5),
            scenario_spec,
            seed=3,
        ).generate()
        assert len(trace.failures) == len(trace.recoveries)
        for failure, recovery in zip(trace.failures, trace.recoveries):
            assert recovery.time > failure.time
            assert 0 <= failure.server < scenario_spec.servers

    def test_all_events_sorted(self, scenario_spec):
        trace, _ = TraceGenerator(
            TraceSpec(horizon=6.0, arrival_rate=3.0, failure_rate=0.3),
            scenario_spec,
            seed=4,
        ).generate()
        times = [e.time for e in trace.all_events()]
        assert times == sorted(times)


class TestTraceThroughScheduler:
    def test_end_to_end(self, scenario_spec):
        from repro.workloads import ScenarioGenerator

        estate = ScenarioGenerator(scenario_spec, seed=5).generate().infrastructure
        trace, _ = TraceGenerator(
            TraceSpec(horizon=6.0, arrival_rate=2.0, failure_rate=0.2),
            scenario_spec,
            seed=5,
        ).generate()
        scheduler = TimeWindowScheduler(estate, FirstFitAllocator())
        trace.apply_to(scheduler)
        reports = scheduler.run(max_windows=64)
        scheduler.state.verify_consistency()
        summary = scenario_metrics(reports)
        assert summary.arrivals == len(trace.arrivals)
        # Every arrival was decided (possibly repeatedly, via failures).
        assert summary.accepted + summary.rejected >= summary.arrivals
        assert summary.failures == len(trace.failures)
