"""Coverage-widening tests for corners the focused suites skip:
migration-aware allocation outcomes, exclusion/penalty engines end to
end, CP value orders, round-robin state, enums, strict-QoS evaluator."""

import numpy as np
import pytest

from repro.baselines import FirstFitAllocator, RoundRobinAllocator
from repro.cp import CPSearch, CPSolver
from repro.ea import (
    ExclusionHandling,
    NSGA2,
    NSGA3,
    NSGAConfig,
    PenaltyHandling,
)
from repro.engine import CompiledProblem, IncrementalEvaluator
from repro.hybrid import NSGA3TabuAllocator
from repro.model import Request
from repro.objectives import PopulationEvaluator
from repro.types import AlgorithmKind, ConstraintHandling, ObjectiveKind, PlacementRule

_FAST = NSGAConfig(population_size=16, max_evaluations=320, seed=9)


class TestMigrationAwareAllocation:
    def test_outcome_reports_migration_cost(self, small_infra, small_request):
        previous = np.array([0, 0, 2, 3, 4, 5])
        outcome = FirstFitAllocator().allocate(
            small_infra, [small_request], previous_assignment=previous
        )
        moved = outcome.assignment != previous
        expect = small_request.migration_cost[moved].sum()
        assert outcome.objectives[2] == pytest.approx(expect)

    def test_tabu_allocator_prefers_staying_put(self, small_infra, small_request):
        """With a feasible previous placement, the migration objective
        keeps the chosen solution close to it."""
        previous = np.array([0, 0, 2, 3, 4, 5])
        outcome = NSGA3TabuAllocator(_FAST).allocate(
            small_infra, [small_request], previous_assignment=previous
        )
        moves = int((outcome.assignment != previous).sum())
        assert moves < small_request.n  # strictly fewer than "move all"


class TestHandlersEndToEnd:
    @pytest.mark.parametrize("engine_cls", [NSGA2, NSGA3])
    def test_exclusion_runs(self, engine_cls, small_infra, small_request):
        evaluator = PopulationEvaluator(small_infra, small_request)
        result = engine_cls(_FAST, handler=ExclusionHandling()).run(evaluator)
        assert len(result.population) == _FAST.population_size

    @pytest.mark.parametrize("engine_cls", [NSGA2, NSGA3])
    def test_penalty_runs_and_reduces_violations(
        self, engine_cls, small_infra, small_request
    ):
        evaluator = PopulationEvaluator(small_infra, small_request)
        plain = engine_cls(_FAST).run(
            PopulationEvaluator(small_infra, small_request)
        )
        penalized = engine_cls(
            _FAST, handler=PenaltyHandling(coefficient=1e4)
        ).run(evaluator)
        # The penalty must steer the *population* toward feasibility at
        # least as well as ignoring constraints entirely.
        assert (
            penalized.population.violations.mean()
            <= plain.population.violations.mean() + 1e-9
        )


class TestRoundRobinState:
    def test_pointer_persists_across_requests(self, small_infra):
        request = Request(
            demand=np.ones((1, 3)),
            qos_guarantee=np.array([0.9]),
            downtime_cost=np.array([1.0]),
            migration_cost=np.array([1.0]),
        )
        allocator = RoundRobinAllocator()
        first = allocator.allocate(small_infra, [request])
        second = allocator.allocate(small_infra, [request])
        assert first.assignment[0] != second.assignment[0]

    def test_reset_rewinds(self, small_infra):
        request = Request(
            demand=np.ones((1, 3)),
            qos_guarantee=np.array([0.9]),
            downtime_cost=np.array([1.0]),
            migration_cost=np.array([1.0]),
        )
        allocator = RoundRobinAllocator()
        first = allocator.allocate(small_infra, [request])
        allocator.reset()
        again = allocator.allocate(small_infra, [request])
        assert first.assignment[0] == again.assignment[0]


class TestCPValueOrders:
    @pytest.mark.parametrize("order", ["index", "cheapest", "spread"])
    def test_all_orders_find_feasible(self, order, small_infra, small_request):
        solver = CPSolver(small_infra, small_request, value_order=order)
        solution = solver.find_feasible()
        assert solution.found

    def test_cheapest_first_feasible_not_worse_than_index(
        self, small_infra, small_request
    ):
        cheap = CPSolver(
            small_infra, small_request, value_order="cheapest"
        ).find_feasible()
        index = CPSolver(
            small_infra, small_request, value_order="index"
        ).find_feasible()
        assert cheap.cost <= index.cost + 1e-9

    def test_spread_prefers_roomy_servers(self, small_infra):
        request = Request(
            demand=np.ones((1, 3)),
            qos_guarantee=np.array([0.9]),
            downtime_cost=np.array([1.0]),
            migration_cost=np.array([1.0]),
        )
        search = CPSearch(small_infra, request, value_order="spread")
        assignment, _cost = search.solve()
        # Servers 2, 3, 6, 7 are the big boxes; spread goes there first.
        assert assignment[0] in (2, 3, 6, 7)


class TestStrictQosEvaluator:
    def test_strict_mode_counts_more_violations(self, small_infra, small_request):
        rng = np.random.default_rng(3)
        population = rng.integers(0, small_infra.m, size=(20, small_request.n))
        loose = PopulationEvaluator(small_infra, small_request)
        strict = PopulationEvaluator(small_infra, small_request, qos_strict=True)
        loose_violations = loose.evaluate_population(population).violations
        strict_violations = strict.evaluate_population(population).violations
        assert np.all(strict_violations >= loose_violations)

    def test_strict_batch_matches_single(self, small_infra, small_request):
        rng = np.random.default_rng(4)
        population = rng.integers(0, small_infra.m, size=(10, small_request.n))
        strict = PopulationEvaluator(small_infra, small_request, qos_strict=True)
        result = strict.evaluate_population(population)
        compiled = CompiledProblem(small_infra, small_request)
        for i in range(10):
            # The incremental state's own scalar count of each row.
            state = IncrementalEvaluator(compiled, strict, population[i])
            assert state.violations == result.violations[i]


class TestEnums:
    def test_placement_rule_values_roundtrip(self):
        for rule in PlacementRule:
            assert PlacementRule(rule.value) is rule

    def test_algorithm_kind_covers_paper_six(self):
        assert len(AlgorithmKind) == 6

    def test_objective_kind_covers_eq15(self):
        assert len(ObjectiveKind) == 3

    def test_constraint_handling_strategies(self):
        values = {handling.value for handling in ConstraintHandling}
        assert {"none", "exclude", "repair_tabu", "repair_cp", "penalty"} == values
