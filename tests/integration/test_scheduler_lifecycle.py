"""Integration test: a full tenant lifecycle through the time-window
scheduler with the paper's hybrid allocator, including reconfiguration."""

import numpy as np
import pytest

from repro import (
    NSGA3TabuAllocator,
    NSGAConfig,
    ScenarioGenerator,
    ScenarioSpec,
    TimeWindowScheduler,
)
from repro.baselines import BestFitAllocator

_FAST = NSGAConfig(population_size=20, max_evaluations=400, seed=5)


@pytest.fixture(scope="module")
def scenario():
    spec = ScenarioSpec(servers=16, datacenters=2, vms=48, tightness=0.5)
    return ScenarioGenerator(spec, seed=21).generate()


class TestLifecycleWithHybridAllocator:
    def test_arrivals_departures_reoptimize(self, scenario):
        scheduler = TimeWindowScheduler(
            scenario.infrastructure,
            NSGA3TabuAllocator(_FAST),
            window_length=1.0,
        )
        # Stagger arrivals over three windows; half the tenants leave.
        for i, request in enumerate(scenario.requests):
            scheduler.submit(f"r{i}", request, at=float(i % 3))
            if i % 2 == 0:
                scheduler.schedule_departure(f"r{i}", at=4.0)
        reports = scheduler.run(max_windows=10)
        scheduler.state.verify_consistency()

        accepted = [k for r in reports for k in r.accepted]
        assert accepted  # at 50% tightness most requests must land
        total = sum(len(r.accepted) + len(r.rejected) for r in reports)
        assert total == scenario.n_requests

        # Reconfiguration: migration plan must be consistent and the
        # platform must stay consistent whether or not it was applied.
        result = scheduler.reoptimize(BestFitAllocator())
        if result is not None:
            outcome, plan = result
            assert plan.total_cost >= 0.0
            scheduler.state.verify_consistency()

    def test_committed_capacity_never_negative(self, scenario):
        scheduler = TimeWindowScheduler(
            scenario.infrastructure, BestFitAllocator(), window_length=1.0
        )
        rng = np.random.default_rng(0)
        for i, request in enumerate(scenario.requests):
            at = float(rng.integers(0, 5))
            scheduler.submit(f"r{i}", request, at=at)
            scheduler.schedule_departure(f"r{i}", at=at + float(rng.integers(1, 4)))
        scheduler.run(max_windows=20)
        assert np.all(scheduler.state.committed_usage >= -1e-9)
        capacity = scenario.infrastructure.effective_capacity
        residual = capacity - scheduler.state.committed_usage
        assert np.all(residual <= capacity + 1e-9)

    def test_reoptimize_with_migration_costs_reduces_moves(self, scenario):
        """The migration objective must make the optimizer prefer
        keeping resources where they are: re-optimizing an already
        committed platform should move only a fraction of resources."""
        scheduler = TimeWindowScheduler(
            scenario.infrastructure, BestFitAllocator(), window_length=1.0
        )
        for i, request in enumerate(scenario.requests[:6]):
            scheduler.submit(f"r{i}", request, at=0.0)
        scheduler.run_window()
        hosted_before = scheduler.state.hosted_resource_count
        if hosted_before == 0:
            pytest.skip("nothing committed")
        result = scheduler.reoptimize(NSGA3TabuAllocator(_FAST))
        assert result is not None
        outcome, plan = result
        # Eq. 26 pressure: strictly fewer moves than total resources.
        assert plan.size < hosted_before
