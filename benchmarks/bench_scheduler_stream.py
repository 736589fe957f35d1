"""Operational bench — allocators under a continuous churn stream.

The figure benches measure one window; a live platform runs hundreds.
This bench drives each allocator with the same Poisson arrival /
lognormal lifetime / failure-injected trace and reports end-to-end
acceptance and total allocation time — the operational view of the
Figure 7-9 trade-offs (fast-but-greedy vs slow-but-thorough), on the
paper's future-work event model.
"""

import pytest

from benchmarks.conftest import BENCH_EA
from repro.baselines import (
    BestFitAllocator,
    FilterSchedulerAllocator,
    RoundRobinAllocator,
)
from repro.hybrid import NSGA3TabuAllocator
from repro.scheduler import TimeWindowScheduler, scenario_metrics
from repro.workloads import (
    ScenarioGenerator,
    ScenarioSpec,
    TraceGenerator,
    TraceSpec,
)

_ALLOCATORS = {
    "round_robin": lambda: RoundRobinAllocator(),
    "best_fit": lambda: BestFitAllocator(),
    "filter_scheduler": lambda: FilterSchedulerAllocator(),
    "nsga3_tabu": lambda: NSGA3TabuAllocator(BENCH_EA),
}


@pytest.mark.parametrize("name", sorted(_ALLOCATORS))
def test_scheduler_stream(benchmark, name):
    scenario_spec = ScenarioSpec(
        servers=24, datacenters=2, vms=60, tightness=0.55
    )
    estate = ScenarioGenerator(scenario_spec, seed=14).generate().infrastructure
    trace, _ = TraceGenerator(
        TraceSpec(
            horizon=10.0,
            arrival_rate=2.5,
            mean_lifetime=5.0,
            failure_rate=0.2,
        ),
        scenario_spec,
        seed=14,
    ).generate()

    def run():
        scheduler = TimeWindowScheduler(estate, _ALLOCATORS[name]())
        trace.apply_to(scheduler)
        reports = scheduler.run(max_windows=64)
        scheduler.state.verify_consistency()
        return scenario_metrics(reports)

    summary = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["accepted"] = summary.accepted
    benchmark.extra_info["rejected"] = summary.rejected
    benchmark.extra_info["displaced"] = summary.displaced
    benchmark.extra_info["allocation_time"] = round(
        summary.execution_time, 3
    )
    assert summary.arrivals == len(trace.arrivals)
    assert summary.failures == len(trace.failures)
