"""Unit tests for the constraint system (Eq. 4-5, 9-12)."""

import numpy as np
import pytest

from repro.constraints import (
    AssignmentConstraint,
    CapacityConstraint,
    ConstraintSet,
    GroupConstraint,
    group_violations,
)
from repro.engine import CompiledProblem, IncrementalEvaluator
from repro.engine.kernels import use_kernel
from repro.errors import ConstraintError, DimensionError
from repro.model import PlacementGroup, Request
from repro.model.placement import UNPLACED
from repro.objectives import PopulationEvaluator
from repro.types import PlacementRule
from repro.workloads.generator import ScenarioGenerator, ScenarioSpec


def _scattered_usage(assignment, demand, m):
    """(m, h) usage of one genome by ``np.add.at`` — an independent
    scatter, not the kernels' bincount tiles."""
    usage = np.zeros((m, demand.shape[1]))
    placed = assignment != UNPLACED
    np.add.at(usage, assignment[placed], demand[placed])
    return usage


def _generated_instances():
    """Generated instances whose request carries all four rules (one
    extra three-member group per rule on top of the generated ones)."""
    for seed in range(4):
        spec = ScenarioSpec(
            servers=6 + 2 * seed,
            datacenters=3,
            vms=16 + 4 * seed,
            max_request_size=5,
            affinity_probability=1.0,
        )
        scenario = ScenarioGenerator(spec, seed=seed).generate()
        request, _ = Request.concatenate(list(scenario.requests))
        rng = np.random.default_rng(seed)
        extra = tuple(
            PlacementGroup(rule, tuple(rng.choice(request.n, size=3, replace=False).tolist()))
            for rule in PlacementRule
        )
        request = Request(
            demand=request.demand,
            qos_guarantee=request.qos_guarantee,
            downtime_cost=request.downtime_cost,
            migration_cost=request.migration_cost,
            groups=request.groups + extra,
        )
        yield scenario.infrastructure, request


class TestCapacity:
    def test_fits_when_within_limits(self, small_infra, small_request):
        constraint = CapacityConstraint(small_infra, small_request.demand)
        spread = np.array([0, 0, 2, 3, 4, 5])
        assert constraint.violations(spread) == 0

    def test_overload_counts_cells(self, small_infra, small_request):
        constraint = CapacityConstraint(small_infra, small_request.demand)
        all_on_zero = np.zeros(6, dtype=np.int64)
        usage = _scattered_usage(all_on_zero, small_request.demand, small_infra.m)
        assert constraint.violations(all_on_zero) == int(
            (usage > constraint.threshold).sum()
        )

    def test_base_usage_shrinks_limit(self, small_infra, small_request):
        base = np.zeros((8, 3))
        base[0] = small_infra.effective_capacity[0]  # server 0 full
        constraint = CapacityConstraint(
            small_infra, small_request.demand, base_usage=base
        )
        one_vm = np.array([0, 1, 2, 3, 4, 5])
        assert constraint.violations(one_vm) > 0

    def test_overloaded_servers_detection(self, small_infra):
        demand = np.tile(small_infra.effective_capacity[0], (2, 1))
        constraint = CapacityConstraint(small_infra, demand)
        both_on_zero = np.array([[0, 0]])
        usage = constraint.batch_usage(both_on_zero)[0]
        overloaded = np.flatnonzero((usage > constraint.threshold).any(axis=1))
        assert overloaded.tolist() == [0]
        assert constraint.violations(both_on_zero[0]) == small_infra.h

    def test_unplaced_genes_add_nothing(self, small_infra, small_request):
        constraint = CapacityConstraint(small_infra, small_request.demand)
        genome = np.full(6, UNPLACED, dtype=np.int64)
        assert constraint.violations(genome) == 0
        assert np.all(constraint.batch_usage(genome[None, :]) == 0.0)

    def test_batch_matches_single(self, small_infra, small_request):
        constraint = CapacityConstraint(small_infra, small_request.demand)
        rng = np.random.default_rng(0)
        population = rng.integers(0, 8, size=(25, 6))
        population[3, 2] = UNPLACED
        batch = constraint.batch_violations(population)
        single = [
            int((_scattered_usage(row, small_request.demand, 8) > constraint.threshold).sum())
            for row in population
        ]
        assert batch.tolist() == single

    def test_batch_usage_matches_single(self, small_infra, small_request):
        constraint = CapacityConstraint(small_infra, small_request.demand)
        rng = np.random.default_rng(1)
        population = rng.integers(0, 8, size=(10, 6))
        usage = constraint.batch_usage(population)
        for i in range(10):
            assert np.allclose(
                usage[i], _scattered_usage(population[i], small_request.demand, 8)
            )

    def test_fits_predicate(self, small_infra, small_request):
        constraint = CapacityConstraint(small_infra, small_request.demand)
        genome = np.array([0, 0, 2, 3, 4, 5])
        # Moving VM 5 onto server 0 alongside 0 and 1: demand sums
        # (2+2+1, 8+8+4, 50+50+25) = (5, 20, 125) well within limits.
        genome[5] = 0
        usage = constraint.batch_usage(genome[None, :])[0]
        assert np.all(usage[0] <= constraint.threshold[0])
        assert constraint.violations(genome) == 0

    def test_demand_shape_checked(self, small_infra):
        with pytest.raises(DimensionError):
            CapacityConstraint(small_infra, np.ones((3, 2)))


class TestAssignment:
    def test_counts_unplaced(self):
        constraint = AssignmentConstraint(4)
        assert constraint.violations(np.array([0, UNPLACED, 2, UNPLACED])) == 2
        assert constraint.violations(np.array([0, 1, 2, 3])) == 0

    def test_batch(self):
        constraint = AssignmentConstraint(3)
        population = np.array([[0, 1, 2], [UNPLACED, 1, UNPLACED]])
        assert constraint.batch_violations(population).tolist() == [0, 2]

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            AssignmentConstraint(3).violations(np.array([0, 1]))


#: One three-member group on ``small_infra`` (servers 0-3 in datacenter
#: 0, 4-7 in datacenter 1): each placement's genes and its hand count
#: under each rule.
_PLACEMENTS = {
    "co-located": ([0, 0, 0], {"same_server": 0, "same_datacenter": 0,
                               "different_servers": 2, "different_datacenters": 2}),
    "split": ([0, 1, 4], {"same_server": 2, "same_datacenter": 1,
                          "different_servers": 0, "different_datacenters": 1}),
    "some-unplaced": ([0, UNPLACED, 1], {"same_server": 1, "same_datacenter": 0,
                                         "different_servers": 0, "different_datacenters": 1}),
    "all-unplaced": ([UNPLACED] * 3, {"same_server": 0, "same_datacenter": 0,
                                      "different_servers": 0, "different_datacenters": 0}),
    "one-placed": ([UNPLACED, 4, UNPLACED], {"same_server": 0, "same_datacenter": 0,
                                             "different_servers": 0, "different_datacenters": 0}),
}


class TestAffinityRules:
    @pytest.mark.parametrize("kernel", ["reference", "numpy"])
    @pytest.mark.parametrize("placement", list(_PLACEMENTS))
    @pytest.mark.parametrize("rule", list(PlacementRule), ids=lambda rule: rule.value)
    def test_hand_counts(self, small_infra, rule, placement, kernel):
        """Every rule against every placement shape, counted by the
        constraint, by the active kernel's group matrix and in the
        breakdown — each equal to the hand count."""
        genes, counts = _PLACEMENTS[placement]
        expected = counts[rule.value]
        request = Request(
            demand=np.ones((3, small_infra.h)),
            qos_guarantee=np.full(3, 0.9),
            downtime_cost=np.ones(3),
            migration_cost=np.ones(3),
            groups=(PlacementGroup(rule, (0, 1, 2)),),
        )
        constraint_set = ConstraintSet(small_infra, request)
        [constraint] = constraint_set.group_constraints
        genome = np.array(genes, dtype=np.int64)
        with use_kernel(kernel):
            matrix = constraint_set.batch_group_violations(genome[None, :])
            breakdown = constraint_set.breakdown(genome)
        assert matrix.tolist() == [[expected]]
        assert breakdown[rule.value] == expected
        assert constraint.violations(genome) == expected

    def test_batch_matches_single_for_all_rules(self, small_infra):
        """A group's own per-row count equals its column of the
        vectorized group matrix, unplaced genes included."""
        rng = np.random.default_rng(2)
        population = rng.integers(0, 8, size=(30, 5))
        population[rng.random(population.shape) < 0.2] = UNPLACED
        groups = (
            PlacementGroup(PlacementRule.SAME_SERVER, (0, 2, 4)),
            PlacementGroup(PlacementRule.SAME_DATACENTER, (1, 3)),
            PlacementGroup(PlacementRule.DIFFERENT_SERVERS, (0, 1, 2, 3)),
            PlacementGroup(PlacementRule.DIFFERENT_DATACENTERS, (2, 4)),
        )
        request = Request(
            demand=np.ones((5, small_infra.h)),
            qos_guarantee=np.full(5, 0.9),
            downtime_cost=np.ones(5),
            migration_cost=np.ones(5),
            groups=groups,
        )
        constraint_set = ConstraintSet(small_infra, request)
        matrix = constraint_set.batch_group_violations(population)
        for column, constraint in enumerate(constraint_set.group_constraints):
            single = constraint.batch_violations(population)
            assert single.tolist() == matrix[:, column].tolist(), constraint.name
        assert np.count_nonzero(matrix) > 10

    def test_member_outside_genome_raises(self, small_infra):
        constraint = GroupConstraint(
            PlacementRule.SAME_SERVER, (0, 9), small_infra.server_datacenter
        )
        with pytest.raises(ConstraintError):
            constraint.violations(np.array([0, 1]))


class TestFactoryAndSet:
    def test_factory_maps_all_rules(self, small_infra, small_request):
        request = Request(
            demand=small_request.demand,
            qos_guarantee=small_request.qos_guarantee,
            downtime_cost=small_request.downtime_cost,
            migration_cost=small_request.migration_cost,
            groups=tuple(PlacementGroup(rule, (0, 1)) for rule in PlacementRule),
        )
        constraints = ConstraintSet(small_infra, request).group_constraints
        assert [c.rule for c in constraints] == list(PlacementRule)
        assert [c.name for c in constraints] == [rule.value for rule in PlacementRule]
        assert all(type(c) is GroupConstraint for c in constraints)

    def test_set_composition(self, small_infra, small_request):
        constraint_set = ConstraintSet(small_infra, small_request)
        # capacity + 2 groups + assignment
        assert len(constraint_set) == 4
        no_assign = ConstraintSet(
            small_infra, small_request, include_assignment=False
        )
        assert len(no_assign) == 3

    def test_breakdown_keys(self, small_infra, small_request):
        constraint_set = ConstraintSet(small_infra, small_request)
        genome = np.array([0, 1, 2, 2, 4, 5])  # breaks both groups
        breakdown = constraint_set.breakdown(genome)
        assert breakdown["same_server"] == 1
        assert breakdown["different_servers"] == 1
        assert breakdown["assignment"] == 0

    def test_feasibility(self, small_infra, small_request):
        constraint_set = ConstraintSet(small_infra, small_request)
        good = np.array([0, 0, 2, 3, 4, 5])
        assert constraint_set.is_feasible(good)
        bad = np.array([0, 1, 2, 3, 4, 5])  # breaks same-server (0,1)
        assert not constraint_set.is_feasible(bad)

    @pytest.mark.parametrize("kernel", ["reference", "numpy"])
    def test_batch_total_matches_single(self, small_infra, small_request, kernel):
        """Batch totals equal the incremental state's totals, and the
        (rows, G) group matrix is one contract with the walk's per-move count:
        every cell equals ``group_violations`` of that row's members, on
        generated instances with all four rules and unplaced genes."""
        cells = 0
        instances = [(small_infra, small_request), *_generated_instances()]
        for index, (infra, request) in enumerate(instances):
            constraint_set = ConstraintSet(infra, request)
            rng = np.random.default_rng(3 + index)
            population = rng.integers(0, infra.m, size=(20, request.n))
            population[10:][rng.random((10, request.n)) < 0.3] = UNPLACED
            with use_kernel(kernel):
                batch = constraint_set.batch_violations(population)
                tiled = constraint_set.batch_violations(
                    population, usage=constraint_set.capacity.batch_usage(population)
                )
                matrix = constraint_set.batch_group_violations(population)
            # Each row's total from the incremental state's own scalar code.
            evaluator = PopulationEvaluator(infra, request, constraints=constraint_set)
            compiled = CompiledProblem(infra, request)
            single = [
                IncrementalEvaluator(compiled, evaluator, row).violations
                for row in population
            ]
            assert batch.tolist() == single
            assert tiled.tolist() == single
            dc_of = infra.server_datacenter.tolist()
            assert matrix.dtype == np.int64
            assert matrix.tolist() == [
                [
                    group_violations(group.rule, [int(row[k]) for k in group.members], dc_of)
                    for group in request.groups
                ]
                for row in population
            ]
            cells += int(np.count_nonzero(matrix))
        assert {g.rule for g in instances[-1][1].groups} == set(PlacementRule)
        assert cells > 100  # violated groups, not only zeros

    def test_batch_breakdown_sums_to_total(self, small_infra, small_request):
        constraint_set = ConstraintSet(small_infra, small_request)
        rng = np.random.default_rng(4)
        population = rng.integers(0, 8, size=(15, 6))
        breakdown = constraint_set.batch_breakdown(population)
        total = sum(breakdown.values())
        assert np.array_equal(total, constraint_set.batch_violations(population))
