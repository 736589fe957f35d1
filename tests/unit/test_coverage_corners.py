"""Coverage-widening tests for corners the focused suites skip:
migration-aware allocation outcomes, exclusion/penalty engines end to
end, the CP value order, round-robin state, enums."""

import numpy as np
import pytest

from repro.baselines import FirstFitAllocator, RoundRobinAllocator
from repro.cp import CPSolver
from repro.ea import (
    ExclusionHandling,
    NSGA2,
    NSGA3,
    NSGAConfig,
    PenaltyHandling,
)
from repro.engine import CompiledProblem
from repro.hybrid import NSGA3TabuAllocator
from repro.model import Request
from repro.objectives import PopulationEvaluator
from repro.types import AlgorithmKind, ObjectiveKind, PlacementRule

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


class TestCPValueOrder:
    def test_cheapest_order_finds_feasible(self, small_infra, small_request):
        solver = CPSolver(CompiledProblem(small_infra, small_request))
        solution = solver.find_feasible()
        assert solution.found


class TestEnums:
    def test_placement_rule_values_roundtrip(self):
        for rule in PlacementRule:
            assert PlacementRule(rule.value) is rule

    def test_algorithm_kind_covers_paper_six(self):
        assert len(AlgorithmKind) == 6

    def test_objective_kind_covers_eq15(self):
        assert len(ObjectiveKind) == 3
