"""Unit tests for the constraint system (Eq. 4-5, 9-12)."""

import numpy as np
import pytest

from repro.constraints import (
    AssignmentConstraint,
    CapacityConstraint,
    ConstraintSet,
    DifferentDatacentersConstraint,
    DifferentServersConstraint,
    SameDatacenterConstraint,
    SameServerConstraint,
    make_group_constraint,
)
from repro.engine.incremental import group_violations
from repro.engine.kernels import use_kernel
from repro.errors import ConstraintError, DimensionError
from repro.model import PlacementGroup, Request
from repro.model.placement import UNPLACED
from repro.types import PlacementRule
from repro.workloads.generator import ScenarioGenerator, ScenarioSpec


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
        # Server 0: 16*0.95=15.2 cpu vs 14 demanded -> fits cpu, but
        # 64*0.95=60.8 ram vs 56 fits, disk 475 vs 350 fits: actually ok;
        # verify via the mask rather than guessing.
        assert constraint.violations(all_on_zero) == int(
            constraint.overloaded_cells(all_on_zero).sum()
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
        both_on_zero = np.array([0, 0])
        assert 0 in constraint.overloaded_servers(both_on_zero)

    def test_unplaced_genes_add_nothing(self, small_infra, small_request):
        constraint = CapacityConstraint(small_infra, small_request.demand)
        genome = np.full(6, UNPLACED, dtype=np.int64)
        assert constraint.violations(genome) == 0
        assert np.allclose(constraint.server_usage(genome), 0.0)

    def test_batch_matches_single(self, small_infra, small_request):
        constraint = CapacityConstraint(small_infra, small_request.demand)
        rng = np.random.default_rng(0)
        population = rng.integers(0, 8, size=(25, 6))
        population[3, 2] = UNPLACED
        batch = constraint.batch_violations(population)
        single = [constraint.violations(row) for row in population]
        assert batch.tolist() == single

    def test_batch_usage_matches_single(self, small_infra, small_request):
        constraint = CapacityConstraint(small_infra, small_request.demand)
        rng = np.random.default_rng(1)
        population = rng.integers(0, 8, size=(10, 6))
        usage = constraint.batch_usage(population)
        for i in range(10):
            assert np.allclose(usage[i], constraint.server_usage(population[i]))

    def test_fits_predicate(self, small_infra, small_request):
        constraint = CapacityConstraint(small_infra, small_request.demand)
        genome = np.array([0, 0, 2, 3, 4, 5])
        # Moving VM 5 onto server 0 alongside 0 and 1: demand sums
        # (2+2+1, 8+8+4, 50+50+25) = (5, 20, 125) well within limits.
        assert constraint.fits(genome, 5, 0)

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


class TestAffinityRules:
    def test_same_server_counts_extra_locations(self):
        constraint = SameServerConstraint((0, 1, 2))
        assert constraint.violations(np.array([3, 3, 3])) == 0
        assert constraint.violations(np.array([3, 3, 4])) == 1
        assert constraint.violations(np.array([3, 4, 5])) == 2

    def test_same_server_ignores_unplaced(self):
        constraint = SameServerConstraint((0, 1))
        assert constraint.violations(np.array([UNPLACED, 3])) == 0

    def test_same_datacenter(self, small_infra):
        constraint = SameDatacenterConstraint((0, 1), small_infra)
        assert constraint.violations(np.array([0, 3])) == 0  # both dc0
        assert constraint.violations(np.array([0, 4])) == 1  # dc0 vs dc1

    def test_different_servers_counts_collisions(self):
        constraint = DifferentServersConstraint((0, 1, 2))
        assert constraint.violations(np.array([1, 2, 3])) == 0
        assert constraint.violations(np.array([1, 1, 3])) == 1
        assert constraint.violations(np.array([1, 1, 1])) == 2

    def test_different_datacenters(self, small_infra):
        constraint = DifferentDatacentersConstraint((0, 1), small_infra)
        assert constraint.violations(np.array([0, 4])) == 0
        assert constraint.violations(np.array([0, 3])) == 1  # both dc0

    def test_batch_matches_single_for_all_rules(self, small_infra):
        rng = np.random.default_rng(2)
        population = rng.integers(0, 8, size=(30, 5))
        constraints = [
            SameServerConstraint((0, 2, 4)),
            SameDatacenterConstraint((1, 3), small_infra),
            DifferentServersConstraint((0, 1, 2, 3)),
            DifferentDatacentersConstraint((2, 4), small_infra),
        ]
        for constraint in constraints:
            batch = constraint.batch_violations(population)
            single = [constraint.violations(row) for row in population]
            assert batch.tolist() == single, constraint.name

    def test_batch_with_unplaced_falls_back(self, small_infra):
        constraint = SameServerConstraint((0, 1))
        population = np.array([[UNPLACED, 3], [2, 2]])
        assert constraint.batch_violations(population).tolist() == [0, 0]

    def test_member_outside_genome_raises(self):
        constraint = SameServerConstraint((0, 9))
        with pytest.raises(ConstraintError):
            constraint.violations(np.array([0, 1]))


class TestFactoryAndSet:
    def test_factory_maps_all_rules(self, small_infra):
        mapping = {
            PlacementRule.SAME_SERVER: SameServerConstraint,
            PlacementRule.SAME_DATACENTER: SameDatacenterConstraint,
            PlacementRule.DIFFERENT_SERVERS: DifferentServersConstraint,
            PlacementRule.DIFFERENT_DATACENTERS: DifferentDatacentersConstraint,
        }
        for rule, cls in mapping.items():
            group = PlacementGroup(rule, (0, 1))
            assert isinstance(make_group_constraint(group, small_infra), cls)

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
        """Batch totals equal the per-genome counts, and the (rows, G)
        group matrix is one contract with the walk's per-move count:
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
            single = [constraint_set.violations(row) for row in population]
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
