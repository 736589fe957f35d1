"""Unit tests for the allocator interface, greedy baselines and the
CP/NSGA allocators."""

import numpy as np
import pytest

from repro.allocator import per_request_rejections
from repro.baselines import (
    BestFitAllocator,
    FirstFitAllocator,
    RoundRobinAllocator,
    WorstFitAllocator,
)
from repro.constraints import ConstraintSet
from repro.cp import CPAllocator, SearchLimits
from repro.ea import NSGAConfig
from repro.engine import CompiledProblem
from repro.hybrid import (
    NSGA2Allocator,
    NSGA3Allocator,
    NSGA3CPAllocator,
    NSGA3TabuAllocator,
)
from repro.model import AttributeSchema, Infrastructure, Request
from repro.model.placement import UNPLACED

_FAST = NSGAConfig(population_size=20, max_evaluations=400, seed=3)

GREEDY = [
    RoundRobinAllocator,
    FirstFitAllocator,
    BestFitAllocator,
    WorstFitAllocator,
]


class TestRejectionSemantics:
    def test_unplaced_rejects_owner(self, small_infra, small_request):
        merged, owner = Request.concatenate([small_request, small_request])
        constraint_set = ConstraintSet(small_infra, merged)
        assignment = np.array([0, 0, 2, 3, 4, 5] + [UNPLACED] * 6)
        rejected = per_request_rejections(assignment, merged, owner, constraint_set)
        assert rejected.tolist() == [False, True]

    def test_violated_group_rejects_owner(self, small_infra, small_request):
        merged, owner = Request.concatenate([small_request])
        constraint_set = ConstraintSet(small_infra, merged)
        assignment = np.array([0, 1, 2, 3, 4, 5])  # same-server pair split
        rejected = per_request_rejections(assignment, merged, owner, constraint_set)
        assert rejected.tolist() == [True]

    def test_overloaded_server_rejects_all_its_owners(self, small_infra):
        big = small_infra.effective_capacity[0] * 0.8
        request = Request(
            demand=np.vstack([big, big]),
            qos_guarantee=np.full(2, 0.9),
            downtime_cost=np.ones(2),
            migration_cost=np.ones(2),
        )
        merged, owner = Request.concatenate([request])
        constraint_set = ConstraintSet(small_infra, merged)
        assignment = np.array([0, 0])
        rejected = per_request_rejections(assignment, merged, owner, constraint_set)
        assert rejected.tolist() == [True]


class TestGreedyAllocators:
    @pytest.mark.parametrize("cls", GREEDY)
    def test_never_violates(self, cls, small_infra, small_request):
        outcome = cls().allocate(small_infra, [small_request, small_request])
        assert outcome.violations == 0

    @pytest.mark.parametrize("cls", GREEDY)
    def test_accepted_requests_fully_placed(self, cls, small_infra, small_request):
        outcome = cls().allocate(small_infra, [small_request])
        if outcome.accepted[0]:
            assert np.all(outcome.assignment >= 0)

    @pytest.mark.parametrize("cls", GREEDY)
    def test_respects_affinity_groups(self, cls, small_infra, small_request):
        outcome = cls().allocate(small_infra, [small_request])
        if outcome.accepted[0]:
            genome = outcome.assignment
            assert genome[0] == genome[1]  # SAME_SERVER (0, 1)
            assert genome[2] != genome[3]  # DIFFERENT_SERVERS (2, 3)

    def test_round_robin_spreads(self, small_infra):
        request = Request(
            demand=np.ones((4, 3)),
            qos_guarantee=np.full(4, 0.9),
            downtime_cost=np.ones(4),
            migration_cost=np.ones(4),
        )
        outcome = RoundRobinAllocator().allocate(small_infra, [request])
        # Rotation places each VM on a new server.
        assert len(set(outcome.assignment.tolist())) == 4

    def test_first_fit_packs_low_ids(self, small_infra):
        request = Request(
            demand=np.ones((4, 3)),
            qos_guarantee=np.full(4, 0.9),
            downtime_cost=np.ones(4),
            migration_cost=np.ones(4),
        )
        outcome = FirstFitAllocator().allocate(small_infra, [request])
        assert set(outcome.assignment.tolist()) == {0}

    def test_rejects_oversized_request(self, small_infra):
        request = Request(
            demand=np.array([[1e6, 1.0, 1.0]]),
            qos_guarantee=np.array([0.9]),
            downtime_cost=np.array([1.0]),
            migration_cost=np.array([1.0]),
        )
        outcome = FirstFitAllocator().allocate(small_infra, [request])
        assert outcome.rejection_rate == 1.0
        assert outcome.assignment[0] == UNPLACED
        assert outcome.violations == 0

    def test_rejection_rolls_back_usage(self, small_infra, small_request):
        # A rejected request must not consume capacity: the same
        # follow-up request must still be accepted.
        impossible = Request(
            demand=np.vstack([np.ones(3), [1e6, 1.0, 1.0]]),
            qos_guarantee=np.full(2, 0.9),
            downtime_cost=np.ones(2),
            migration_cost=np.ones(2),
        )
        outcome = FirstFitAllocator().allocate(
            small_infra, [impossible, small_request]
        )
        assert outcome.accepted.tolist() == [False, True]

    def test_base_usage_respected(self, small_infra, small_request):
        base = small_infra.effective_capacity.copy()
        base[1:] = 0.0  # server 0 is full
        outcome = FirstFitAllocator().allocate(
            small_infra, [small_request], base_usage=base
        )
        placed = outcome.assignment[outcome.assignment >= 0]
        assert 0 not in placed.tolist()

    def test_first_fit_is_not_monotone_in_committed_usage(self):
        """Committed usage can make first-fit accept more.  On the empty
        estate VM 0 takes server 0 and VM 1 then fits nowhere; with
        (6, 0) committed on server 0, VM 0 goes to server 1 and VM 1
        fits on server 0.  No placement group is involved."""
        schema = AttributeSchema(names=("a0", "a1"))
        infra = Infrastructure(
            capacity=np.array([[10.0, 10.0], [6.0, 6.0]]),
            capacity_factor=np.ones((2, 2)),
            operating_cost=np.ones(2),
            usage_cost=np.ones(2),
            max_load=np.full((2, 2), 0.5),
            max_qos=np.full((2, 2), 0.9),
            server_datacenter=np.zeros(2, dtype=np.int64),
            schema=schema,
        )
        request = Request(
            demand=np.array([[5.0, 6.0], [3.0, 8.0]]),
            qos_guarantee=np.full(2, 0.9),
            downtime_cost=np.ones(2),
            migration_cost=np.ones(2),
            schema=schema,
        )
        empty = FirstFitAllocator().allocate(infra, [request])
        assert empty.accepted.tolist() == [False]
        base = np.array([[6.0, 0.0], [0.0, 0.0]])
        loaded = FirstFitAllocator().allocate(infra, [request], base_usage=base)
        assert loaded.accepted.tolist() == [True]
        assert loaded.assignment.tolist() == [1, 0]


class TestCPAllocator:
    def test_zero_violations(self, small_infra, small_request):
        outcome = CPAllocator(optimize=False).allocate(
            small_infra, [small_request, small_request]
        )
        assert outcome.violations == 0

    def test_optimize_beats_or_matches_feasible_cost(
        self, small_infra, small_request
    ):
        optimal = CPAllocator(optimize=True).allocate(small_infra, [small_request])
        feasible = CPAllocator(optimize=False).allocate(
            small_infra, [small_request]
        )
        assert optimal.provider_cost <= feasible.provider_cost + 1e-9

    def test_rejects_infeasible_request_only(self, small_infra, small_request):
        impossible = Request(
            demand=np.array([[1e6, 1.0, 1.0]]),
            qos_guarantee=np.array([0.9]),
            downtime_cost=np.array([1.0]),
            migration_cost=np.array([1.0]),
        )
        outcome = CPAllocator(optimize=False).allocate(
            small_infra, [impossible, small_request]
        )
        assert outcome.accepted.tolist() == [False, True]
        assert outcome.extra["proved_rejections"] == 1


class TestNSGAAllocators:
    @pytest.mark.parametrize(
        "cls", [NSGA2Allocator, NSGA3Allocator, NSGA3TabuAllocator]
    )
    def test_produces_full_assignment(self, cls, small_infra, small_request):
        outcome = cls(_FAST).allocate(small_infra, [small_request])
        assert outcome.assignment.shape == (small_request.n,)
        assert np.all(outcome.assignment >= 0)
        assert outcome.evaluations > 0

    def test_tabu_allocator_feasible_on_easy_instance(
        self, small_infra, small_request
    ):
        outcome = NSGA3TabuAllocator(_FAST).allocate(small_infra, [small_request])
        assert outcome.violations == 0
        assert outcome.rejection_rate == 0.0
        assert "repair_calls" in outcome.extra

    def test_outcome_reports_the_generations_run(self, small_infra, small_request):
        """Population 10 and 100 evaluations: the initial population plus
        nine generations, whether or not the engine tracks history."""
        config = NSGAConfig(population_size=10, max_evaluations=100, seed=3)
        outcome = NSGA3TabuAllocator(config).allocate(small_infra, [small_request])
        assert outcome.evaluations == 100
        assert outcome.extra["generations"] == 9

    def test_cp_hybrid_feasible_on_easy_instance(self, small_infra, small_request):
        outcome = NSGA3CPAllocator(
            _FAST, repair_limits=SearchLimits(max_nodes=500, time_limit=0.2)
        ).allocate(small_infra, [small_request])
        assert outcome.violations == 0

    def test_outcome_metric_properties(self, small_infra, small_request):
        outcome = NSGA2Allocator(_FAST).allocate(small_infra, [small_request])
        assert 0.0 <= outcome.rejection_rate <= 1.0
        assert outcome.provider_cost == outcome.objectives[0]
        assert outcome.n_requests == 1


class TestTabuPostProcess:
    def test_feasible_choice_unchanged(self, small_infra, small_request):
        """The final repair pass must not touch an already-feasible
        selected solution."""
        allocator = NSGA3TabuAllocator(_FAST)
        feasible = np.array([0, 0, 2, 3, 4, 5])
        out = allocator._post_process(
            feasible.copy(), CompiledProblem(small_infra, small_request), None
        )
        assert np.array_equal(out, feasible)

    def test_infeasible_choice_gets_repaired(self, small_infra, small_request):
        allocator = NSGA3TabuAllocator(_FAST)
        broken = np.array([0, 1, 2, 3, 4, 5])  # same-server pair split
        out = allocator._post_process(
            broken.copy(), CompiledProblem(small_infra, small_request), None
        )
        from repro.constraints import ConstraintSet

        constraint_set = ConstraintSet(
            small_infra, small_request, include_assignment=False
        )
        assert constraint_set.violations(out) == 0
