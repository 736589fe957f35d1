"""Property tests over the allocator contract: on arbitrary instances,
non-EA allocators never violate constraints, outcomes are internally
consistent, and committed state stays exact."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    BestFitAllocator,
    DotProductAllocator,
    FilterSchedulerAllocator,
    FirstFitAllocator,
    FirstFitDecreasingAllocator,
    RoundRobinAllocator,
    WorstFitAllocator,
)
from repro.constraints import ConstraintSet
from repro.model.placement import UNPLACED
from repro.model.request import Request

from tests.property.test_prop_constraints_objectives import instances

_GREEDY = [
    FirstFitAllocator,
    BestFitAllocator,
    WorstFitAllocator,
    RoundRobinAllocator,
    FirstFitDecreasingAllocator,
    DotProductAllocator,
    FilterSchedulerAllocator,
]


@given(instances(), st.sampled_from(_GREEDY))
@settings(max_examples=60, deadline=None)
def test_greedy_allocators_never_violate(instance, allocator_cls):
    infra, request = instance
    outcome = allocator_cls().allocate(infra, [request])
    assert outcome.violations == 0
    # Internal consistency: breakdown (minus unplaced) sums to the
    # violation count, acceptance matches unplaced-ness for a single
    # request with no violations.
    non_unplaced = sum(
        v for k, v in outcome.violation_breakdown.items() if k != "unplaced"
    )
    assert non_unplaced == outcome.violations
    if outcome.accepted[0]:
        assert np.all(outcome.assignment != UNPLACED)


@given(instances(), st.sampled_from(_GREEDY))
@settings(max_examples=40, deadline=None)
def test_greedy_placements_respect_capacity_exactly(instance, allocator_cls):
    infra, request = instance
    outcome = allocator_cls().allocate(infra, [request])
    constraint_set = ConstraintSet(infra, request, include_assignment=False)
    assert constraint_set.capacity.violations(outcome.assignment) == 0


@given(instances())
@settings(max_examples=30, deadline=None)
def test_outcome_objectives_consistent_with_evaluator(instance):
    """The outcome's objective vector must equal a fresh evaluation of
    its own assignment (no stale numbers)."""
    from repro.objectives import PopulationEvaluator

    infra, request = instance
    outcome = BestFitAllocator().allocate(infra, [request])
    evaluator = PopulationEvaluator(infra, request)
    fresh = evaluator.evaluate(outcome.assignment).as_array()
    assert np.allclose(fresh, outcome.objectives)


@given(instances(), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_base_usage_monotonicity(instance, seed):
    """Pre-committed usage can only shrink the set of servers a lone VM
    fits on, so first-fit never accepts a one-VM request under
    committed usage that it rejects on the empty estate.

    The property holds for one-VM requests only: with two or more VMs,
    committed usage can steer an early VM off the server a later one
    needs (``tests/unit/test_allocators.py::TestGreedyAllocators::
    test_first_fit_is_not_monotone_in_committed_usage``)."""
    infra, request = instance
    rng = np.random.default_rng(seed)
    base = rng.uniform(0, 1, size=(infra.m, infra.h)) * infra.effective_capacity
    for k in range(request.n):
        lone = Request(
            demand=request.demand[k : k + 1],
            qos_guarantee=request.qos_guarantee[k : k + 1],
            downtime_cost=request.downtime_cost[k : k + 1],
            migration_cost=request.migration_cost[k : k + 1],
            schema=request.schema,
        )
        empty = FirstFitAllocator().allocate(infra, [lone])
        loaded = FirstFitAllocator().allocate(infra, [lone], base_usage=base)
        assert loaded.accepted.sum() <= empty.accepted.sum()
