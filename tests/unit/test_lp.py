"""Unit tests for the ILP model assembly and the HiGHS solve path."""

import numpy as np
import pytest

from repro.constraints import ConstraintSet
from repro.engine import CompiledProblem
from repro.lp import ILPModel, solve_ilp
from repro.model import PlacementGroup, Request
from repro.types import PlacementRule


class TestModelAssembly:
    def test_variable_count(self, small_infra, small_request):
        model = ILPModel.build(small_infra, small_request)
        assert model.n_variables == small_request.n * small_infra.m

    def test_objective_tiles_rates(self, small_infra, small_request):
        model = ILPModel.build(small_infra, small_request)
        rate = small_infra.operating_cost + small_infra.usage_cost
        assert np.allclose(model.objective[: small_infra.m], rate)
        assert np.allclose(model.objective[small_infra.m : 2 * small_infra.m], rate)

    def test_assignment_rows(self, small_infra, small_request):
        model = ILPModel.build(small_infra, small_request)
        # Encoding a valid placement must satisfy A_eq x = b_eq.
        x = np.zeros(model.n_variables)
        genome = [0, 0, 2, 3, 4, 5]
        for k, j in enumerate(genome):
            x[k * small_infra.m + j] = 1.0
        assert model.check(x)

    def test_check_rejects_capacity_violation(self, small_infra):
        request = Request(
            demand=np.tile(small_infra.effective_capacity[0] * 0.9, (2, 1)),
            qos_guarantee=np.full(2, 0.9),
            downtime_cost=np.ones(2),
            migration_cost=np.ones(2),
        )
        model = ILPModel.build(small_infra, request)
        x = np.zeros(model.n_variables)
        x[0 * small_infra.m + 0] = 1.0  # both on server 0: overload
        x[1 * small_infra.m + 0] = 1.0
        assert not model.check(x)

    def test_decode(self, small_infra, small_request):
        model = ILPModel.build(small_infra, small_request)
        x = np.zeros(model.n_variables)
        genome = [1, 1, 2, 3, 4, 5]
        for k, j in enumerate(genome):
            x[k * small_infra.m + j] = 1.0
        assert model.decode(x).tolist() == genome

    def test_base_usage_tightens_rhs(self, small_infra, small_request):
        base = np.full(
            (small_infra.m, small_infra.h), 1.0
        )
        loose = ILPModel.build(small_infra, small_request)
        tight = ILPModel.build(small_infra, small_request, base_usage=base)
        assert np.all(tight.b_ub[: small_infra.m * 3] <= loose.b_ub[: small_infra.m * 3])


class TestSolve:
    def test_solution_is_feasible_placement(self, small_infra, small_request):
        solution = solve_ilp(small_infra, small_request, time_limit=30)
        assert solution.optimal
        constraint_set = ConstraintSet(
            small_infra, small_request, include_assignment=False
        )
        assert constraint_set.violations(solution.assignment) == 0

    def test_optimal_cost_matches_hand_computation(self, tiny_infra, tiny_request):
        solution = solve_ilp(tiny_infra, tiny_request, time_limit=30)
        assert solution.optimal
        assert solution.cost == pytest.approx(3.0)  # both on server 0

    def test_infeasible_detected(self, small_infra):
        request = Request(
            demand=np.array([[1e6, 1.0, 1.0]]),
            qos_guarantee=np.array([0.9]),
            downtime_cost=np.array([1.0]),
            migration_cost=np.array([1.0]),
        )
        solution = solve_ilp(small_infra, request, time_limit=10)
        assert solution.infeasible and solution.assignment is None

    def test_group_constraints_respected(self, small_infra):
        request = Request(
            demand=np.ones((4, 3)),
            qos_guarantee=np.full(4, 0.9),
            downtime_cost=np.ones(4),
            migration_cost=np.ones(4),
            groups=(
                PlacementGroup(PlacementRule.SAME_SERVER, (0, 1)),
                PlacementGroup(PlacementRule.DIFFERENT_DATACENTERS, (2, 3)),
            ),
        )
        solution = solve_ilp(small_infra, request, time_limit=30)
        assert solution.optimal
        genome = solution.assignment
        assert genome[0] == genome[1]
        dcs = small_infra.server_datacenter[genome]
        assert dcs[2] != dcs[3]

    def test_agrees_with_cp_on_optimal_cost(self, small_infra, small_request):
        from repro.cp import CPSolver

        ilp = solve_ilp(small_infra, small_request, time_limit=30)
        cp = CPSolver(CompiledProblem(small_infra, small_request)).optimize()
        assert ilp.optimal and cp.proved
        assert ilp.cost == pytest.approx(cp.cost)
