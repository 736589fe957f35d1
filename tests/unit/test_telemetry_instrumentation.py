"""Integration tests: the allocation stack emits the events and
counters that docs/OBSERVABILITY.md promises."""

import numpy as np
import pytest

from repro.baselines import FirstFitAllocator
from repro.cp import CPSolver, SearchLimits
from repro.ea import NSGAConfig
from repro.engine import CompiledProblem
from repro.hybrid import NSGA3TabuAllocator
from repro.model import Infrastructure, PlacementGroup, Request
from repro.objectives import PopulationEvaluator
from repro.scheduler import TimeWindowScheduler
from repro.tabu import TabuRepair, TabuSearch
from repro.types import PlacementRule
from repro.telemetry import (
    GenerationCompleted,
    MetricsRegistry,
    MigrationPlanned,
    RepairInvoked,
    TabuIteration,
    Tracer,
    WindowClosed,
    use_registry,
)
from tests.telemetry_helpers import capture_events, use_tracer


@pytest.fixture
def infra():
    return Infrastructure.homogeneous(
        datacenters=2, servers_per_datacenter=4, capacity=[16, 64, 500]
    )


def _request(n=3, scale=2.0, groups=()):
    return Request(
        demand=np.full((n, 3), scale) * np.array([1.0, 4.0, 25.0]),
        qos_guarantee=np.full(n, 0.9),
        downtime_cost=np.ones(n),
        migration_cost=np.ones(n),
        groups=tuple(groups),
    )


def _tight_request():
    """Big enough, with anti-affinity, that random NSGA genomes start
    infeasible and the repair path actually fires."""
    return _request(
        n=8,
        scale=4.0,
        groups=(PlacementGroup(PlacementRule.DIFFERENT_SERVERS, (0, 1, 2, 3)),),
    )


def _allocator(evaluations=120):
    return NSGA3TabuAllocator(
        NSGAConfig(population_size=12, max_evaluations=evaluations, seed=7)
    )


class TestNSGAInstrumentation:
    def test_generation_events_are_contiguous(self, infra):
        registry = MetricsRegistry()
        with use_registry(registry), capture_events() as sink:
            outcome = _allocator().allocate(infra, [_request()])
        generations = sink.of(GenerationCompleted)
        assert generations, "NSGA-III run emitted no GenerationCompleted"
        assert [e.generation for e in generations] == list(
            range(len(generations))
        )
        last = generations[-1]
        assert last.algorithm == "nsga3"
        assert last.evaluations == outcome.evaluations
        assert 0.0 <= last.feasible_fraction <= 1.0
        assert last.best_aggregate <= last.mean_aggregate

        snapshot = registry.snapshot()
        assert snapshot.counters["nsga.generations{algorithm=nsga3}"] == (
            generations[-1].generation
        )
        assert snapshot.counters["nsga.evaluations{algorithm=nsga3}"] == (
            outcome.evaluations
        )
        assert snapshot.histograms["nsga.run_seconds{algorithm=nsga3}"].count == 1

    def test_generation_spans_when_tracing(self, infra):
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            _allocator().allocate(infra, [_request()])
        names = [r.name for root in tracer.roots for r in root.walk()]
        assert "nsga3.generation" in names
        assert "ea.repair" in names

    def test_repair_events_emitted(self, infra):
        with capture_events() as sink:
            _allocator().allocate(infra, [_tight_request()])
        repairs = sink.of(RepairInvoked)
        assert repairs
        assert {e.repairer for e in repairs} == {"tabu"}
        assert all(e.moves >= 0 for e in repairs)


class TestTabuInstrumentation:
    def test_search_emits_iterations_and_counters(self, infra):
        request = _request(n=4, scale=3.0)
        rng = np.random.default_rng(0)
        assignment = rng.integers(0, infra.m, size=4)
        registry = MetricsRegistry()
        with use_registry(registry), capture_events() as sink:
            evaluator = PopulationEvaluator(infra, request)
            search = TabuSearch(evaluator, max_iterations=10, seed=1)
            search.run(assignment)
        iterations = sink.of(TabuIteration)
        assert iterations
        assert [e.iteration for e in iterations] == list(
            range(1, len(iterations) + 1)
        )
        assert all(e.moves_evaluated >= 0 for e in iterations)
        snapshot = registry.snapshot()
        assert snapshot.counters["tabu.search.iterations"] == len(iterations)
        assert snapshot.histograms["tabu.search.seconds"].count == 1

    def test_repair_counts_individuals_and_moves(self, infra):
        # Pile everything on one server so RAM (6 * 12 > 64) overloads
        # and the repair loop has real work.
        request = _request(n=6, scale=3.0)
        assignment = np.zeros(6, dtype=np.int64)
        registry = MetricsRegistry()
        with use_registry(registry), capture_events() as sink:
            repairer = TabuRepair(CompiledProblem(infra, request), seed=2)
            repairer.repair_genome(assignment)
        [event] = sink.of(RepairInvoked)
        assert event.repairer == "tabu"
        snapshot = registry.snapshot()
        assert snapshot.counters["tabu.repair.individuals{repairer=tabu}"] == 1
        moves_key = "tabu.repair.moves{repairer=tabu}"
        assert snapshot.counters.get(moves_key, 0.0) == event.moves


class TestCPInstrumentation:
    def test_solve_counters(self, infra):
        registry = MetricsRegistry()
        with use_registry(registry):
            solver = CPSolver(
                CompiledProblem(infra, _request()), limits=SearchLimits(max_nodes=10_000)
            )
            solution = solver.find_feasible()
        assert solution.assignment is not None
        stats = solution.stats
        snapshot = registry.snapshot()
        assert snapshot.counters["cp.solves"] == 1
        assert snapshot.counters["cp.nodes"] == stats.nodes >= 1
        assert snapshot.counters.get("cp.backtracks", 0.0) == stats.backtracks
        assert snapshot.counters["cp.solutions"] == stats.solutions
        assert snapshot.histograms["cp.solve_seconds"].count == 1


class TestSchedulerInstrumentation:
    def test_window_counters_accumulate(self, infra):
        registry = MetricsRegistry()
        scheduler = TimeWindowScheduler(infra, FirstFitAllocator())
        with use_registry(registry), capture_events() as sink:
            scheduler.submit("a", _request(), at=0.0)
            scheduler.submit("b", _request(), at=1.0)
            scheduler.schedule_departure("a", at=1.5)
            for _ in scheduler.run():
                pass
        closed = sink.of(WindowClosed)
        assert [e.window_index for e in closed] == list(range(len(closed)))
        snapshot = registry.snapshot()
        assert snapshot.counters["scheduler.windows"] == len(closed)
        assert snapshot.counters["scheduler.arrivals"] == 2
        assert snapshot.counters["scheduler.departures"] == 1
        assert snapshot.counters["scheduler.accepted"] == sum(
            e.accepted for e in closed
        )

    def test_reoptimize_emits_migration_planned(self, infra):
        registry = MetricsRegistry()
        scheduler = TimeWindowScheduler(infra, _allocator(evaluations=96))
        with use_registry(registry), capture_events() as sink:
            scheduler.submit("a", _request(), at=0.0)
            scheduler.submit("b", _request(), at=0.0)
            scheduler.run_window()
            result = scheduler.reoptimize()
        assert result is not None
        [event] = sink.of(MigrationPlanned)
        assert event.tenants == 2
        assert event.moves >= 0
        assert event.cost >= 0.0
        snapshot = registry.snapshot()
        assert snapshot.counters["scheduler.reoptimizations"] == 1
        if event.applied:
            assert snapshot.counters.get("scheduler.migration_moves", 0.0) == (
                event.moves
            )
