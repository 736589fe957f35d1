"""Unit tests for the constraint-programming solver."""

import numpy as np
import pytest

from repro.constraints import ConstraintSet
from repro.cp import CPSolver, DomainStore, SearchLimits
from repro.engine import CompiledProblem
from repro.errors import ValidationError
from repro.model import PlacementGroup, Request
from repro.types import PlacementRule


class TestDomainStore:
    def test_initial_full(self):
        store = DomainStore(3, 4)
        assert store.domain_sizes().tolist() == [4, 4, 4]

    def test_remove_and_restore(self):
        store = DomainStore(2, 3)
        store.push()
        assert store.remove_value(0, 1)
        assert store.candidates(0).tolist() == [0, 2]
        store.pop()
        assert store.candidates(0).tolist() == [0, 1, 2]

    def test_nested_frames(self):
        store = DomainStore(1, 4)
        store.push()
        store.remove_value(0, 0)
        store.push()
        store.remove_value(0, 1)
        assert store.candidates(0).tolist() == [2, 3]
        store.pop()
        assert store.candidates(0).tolist() == [1, 2, 3]
        store.pop()
        assert store.candidates(0).tolist() == [0, 1, 2, 3]

    def test_assign_collapses(self):
        store = DomainStore(1, 4)
        store.push()
        assert store.assign(0, 2)
        assert store.candidates(0).tolist() == [2]

    def test_assign_removed_value_fails(self):
        store = DomainStore(1, 3)
        store.push()
        store.remove_value(0, 1)
        assert not store.assign(0, 1)

    def test_wipeout_reported(self):
        store = DomainStore(1, 2)
        store.push()
        store.remove_value(0, 0)
        assert not store.remove_value(0, 1)
        assert not store.mask[0].any()

    def test_restrict_to(self):
        store = DomainStore(1, 4)
        store.push()
        allowed = np.array([False, True, False, True])
        assert store.restrict_to(0, allowed)
        assert store.candidates(0).tolist() == [1, 3]

    def test_pop_without_push_rejected(self):
        with pytest.raises(ValidationError):
            DomainStore(1, 2).pop()


class TestCPSolve:
    def test_finds_feasible_and_respects_constraints(
        self, small_infra, small_request
    ):
        solution = CPSolver(CompiledProblem(small_infra, small_request)).find_feasible()
        assert solution.found
        constraint_set = ConstraintSet(
            small_infra, small_request, include_assignment=False
        )
        assert constraint_set.violations(solution.assignment) == 0

    def test_optimize_not_worse_than_feasible(self, small_infra, small_request):
        solver = CPSolver(CompiledProblem(small_infra, small_request))
        feasible = solver.find_feasible()
        optimal = solver.optimize()
        assert optimal.found and optimal.cost <= feasible.cost + 1e-9

    def test_optimal_is_cheapest_rate_placement(self, tiny_infra, tiny_request):
        # Both VMs fit on server 0 (rate 1.5) -> optimal cost 3.0.
        solution = CPSolver(CompiledProblem(tiny_infra, tiny_request)).optimize()
        assert solution.found and solution.proved
        assert solution.cost == pytest.approx(3.0)
        assert solution.assignment.tolist() == [0, 0]

    def test_proves_infeasibility(self, small_infra):
        # Demand larger than any server on CPU.
        request = Request(
            demand=np.array([[1000.0, 1.0, 1.0]]),
            qos_guarantee=np.array([0.9]),
            downtime_cost=np.array([1.0]),
            migration_cost=np.array([1.0]),
        )
        solution = CPSolver(CompiledProblem(small_infra, request)).find_feasible()
        assert not solution.found and solution.proved

    def test_pigeonhole_different_datacenters(self, small_infra):
        # 3 resources must be in different datacenters but g = 2.
        request = Request(
            demand=np.ones((3, 3)),
            qos_guarantee=np.full(3, 0.9),
            downtime_cost=np.ones(3),
            migration_cost=np.ones(3),
            groups=(
                PlacementGroup(PlacementRule.DIFFERENT_DATACENTERS, (0, 1, 2)),
            ),
        )
        solution = CPSolver(CompiledProblem(small_infra, request)).find_feasible()
        assert not solution.found and solution.proved

    def test_node_limit_aborts(self, small_infra, small_request):
        solver = CPSolver(
            CompiledProblem(small_infra, small_request), limits=SearchLimits(max_nodes=1)
        )
        solution = solver.find_feasible()
        assert solution.stats.aborted or solution.found

    def test_base_usage_respected(self, tiny_infra, tiny_request):
        # Fill server 0 entirely: the only feasible host is server 1.
        base = np.zeros((2, 2))
        base[0] = tiny_infra.effective_capacity[0]
        solution = CPSolver(
            CompiledProblem(tiny_infra, tiny_request), base_usage=base
        ).find_feasible()
        assert solution.found
        assert solution.assignment.tolist() == [1, 1]

    def test_search_stats_populated(self, small_infra, small_request):
        solver = CPSolver(CompiledProblem(small_infra, small_request))
        solution = solver.optimize()
        assert solution.stats.nodes > 0
        assert solution.stats.elapsed >= 0
        assert solution.stats.solutions >= 1


class TestCPGroupPropagation:
    def _solve(self, infra, request):
        return CPSolver(CompiledProblem(infra, request)).find_feasible()

    def test_same_server_group_lands_together(self, small_infra):
        request = Request(
            demand=np.ones((3, 3)),
            qos_guarantee=np.full(3, 0.9),
            downtime_cost=np.ones(3),
            migration_cost=np.ones(3),
            groups=(PlacementGroup(PlacementRule.SAME_SERVER, (0, 1, 2)),),
        )
        solution = self._solve(small_infra, request)
        assert solution.found
        assert len(set(solution.assignment.tolist())) == 1

    def test_same_datacenter_group(self, small_infra):
        request = Request(
            demand=np.ones((2, 3)),
            qos_guarantee=np.full(2, 0.9),
            downtime_cost=np.ones(2),
            migration_cost=np.ones(2),
            groups=(PlacementGroup(PlacementRule.SAME_DATACENTER, (0, 1)),),
        )
        solution = self._solve(small_infra, request)
        dcs = small_infra.server_datacenter[solution.assignment]
        assert dcs[0] == dcs[1]

    def test_different_servers_group(self, small_infra):
        request = Request(
            demand=np.ones((4, 3)),
            qos_guarantee=np.full(4, 0.9),
            downtime_cost=np.ones(4),
            migration_cost=np.ones(4),
            groups=(
                PlacementGroup(PlacementRule.DIFFERENT_SERVERS, (0, 1, 2, 3)),
            ),
        )
        solution = self._solve(small_infra, request)
        assert len(set(solution.assignment.tolist())) == 4

    def test_different_datacenters_group(self, small_infra):
        request = Request(
            demand=np.ones((2, 3)),
            qos_guarantee=np.full(2, 0.9),
            downtime_cost=np.ones(2),
            migration_cost=np.ones(2),
            groups=(
                PlacementGroup(PlacementRule.DIFFERENT_DATACENTERS, (0, 1)),
            ),
        )
        solution = self._solve(small_infra, request)
        dcs = small_infra.server_datacenter[solution.assignment]
        assert dcs[0] != dcs[1]


class TestCPRepair:
    def test_repairs_broken_genome(self, small_infra, small_request):
        solver = CPSolver(CompiledProblem(small_infra, small_request))
        broken = np.array([0, 1, 2, 3, 4, 5])
        fixed = solver.repair_genome(broken)
        constraint_set = ConstraintSet(
            small_infra, small_request, include_assignment=False
        )
        assert constraint_set.violations(fixed) == 0

    def test_feasible_genome_preserved(self, small_infra, small_request):
        solver = CPSolver(CompiledProblem(small_infra, small_request))
        feasible = np.array([0, 0, 2, 3, 4, 5])
        fixed = solver.repair_population(np.vstack([feasible]))
        assert np.array_equal(fixed[0], feasible)

    def test_budget_exhaustion_returns_unchanged(self, small_infra, small_request):
        solver = CPSolver(
            CompiledProblem(small_infra, small_request), limits=SearchLimits(max_nodes=1)
        )
        broken = np.array([0, 1, 2, 3, 4, 5])
        fixed = solver.repair_genome(broken)
        # Either repaired (found fast) or returned as-is; never garbage.
        assert fixed.shape == broken.shape
        assert fixed.min() >= 0 and fixed.max() < small_infra.m
