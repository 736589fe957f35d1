"""Property tests: scheduler invariants under arbitrary traces.

Whatever the arrival/departure/failure stream, the platform ledger
must stay exact, capacity must never be exceeded on healthy servers,
and every arrival must receive exactly one decision per submission
(re-decisions only through failure displacement)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import BestFitAllocator, FirstFitAllocator
from repro.scheduler import TimeWindowScheduler, scenario_metrics
from repro.workloads import (
    ScenarioGenerator,
    ScenarioSpec,
    TraceGenerator,
    TraceSpec,
)


@st.composite
def trace_setups(draw):
    servers = draw(st.integers(6, 24))
    scenario_spec = ScenarioSpec(
        servers=servers,
        datacenters=draw(st.integers(1, 2)),
        vms=draw(st.integers(10, 40)),
        tightness=draw(st.floats(0.3, 0.8)),
    )
    trace_spec = TraceSpec(
        horizon=draw(st.floats(2.0, 8.0)),
        arrival_rate=draw(st.floats(0.5, 4.0)),
        mean_lifetime=draw(st.floats(1.0, 6.0)),
        failure_rate=draw(st.floats(0.0, 0.6)),
    )
    seed = draw(st.integers(0, 2**31 - 1))
    window = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return scenario_spec, trace_spec, seed, window


@given(trace_setups(), st.sampled_from([FirstFitAllocator, BestFitAllocator]))
@settings(max_examples=25, deadline=None)
def test_ledger_exact_and_capacity_respected(setup, allocator_cls):
    scenario_spec, trace_spec, seed, window = setup
    estate = ScenarioGenerator(scenario_spec, seed=seed).generate().infrastructure
    trace, _ = TraceGenerator(trace_spec, scenario_spec, seed=seed).generate()

    scheduler = TimeWindowScheduler(
        estate, allocator_cls(), window_length=window
    )
    trace.apply_to(scheduler)
    reports = scheduler.run(max_windows=128)

    # Ledger exactness after arbitrary churn.
    scheduler.state.verify_consistency()

    # Committed usage never exceeds effective capacity on any healthy
    # server (greedy allocators never violate, so committed state
    # cannot either).
    usage = scheduler.state.committed_usage
    effective = estate.effective_capacity
    healthy = np.ones(estate.m, dtype=bool)
    for server in scheduler.failed_servers:
        healthy[server] = False
    assert np.all(usage[healthy] <= effective[healthy] + 1e-6)

    # Decision accounting.
    summary = scenario_metrics(reports) if reports else None
    if summary is not None:
        assert summary.arrivals == len(trace.arrivals)
        # One decision per arrival plus one per displacement.
        assert summary.accepted + summary.rejected == (
            summary.arrivals + summary.displaced
        )
        assert summary.failures <= len(trace.failures)


@given(trace_setups())
@settings(max_examples=15, deadline=None)
def test_failed_servers_hold_nothing(setup):
    """After processing, no hosted resource may sit on a failed server."""
    scenario_spec, trace_spec, seed, window = setup
    estate = ScenarioGenerator(scenario_spec, seed=seed).generate().infrastructure
    trace, _ = TraceGenerator(trace_spec, scenario_spec, seed=seed).generate()
    # Strip recoveries so failures are permanent within the run.
    trace.recoveries.clear()

    scheduler = TimeWindowScheduler(
        estate, FirstFitAllocator(), window_length=window
    )
    trace.apply_to(scheduler)
    scheduler.run(max_windows=128)

    failed = scheduler.failed_servers
    for key in scheduler.state.tenants():
        assignment = scheduler.state.previous_assignment(key)
        hosted = set(assignment[assignment >= 0].tolist())
        assert not (hosted & failed), (key, hosted, failed)
