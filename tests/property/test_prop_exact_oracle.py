"""Brute-force oracle: on tiny instances, exhaustive enumeration of all
m^n placements is tractable and gives ground truth for feasibility and
optimal cost.  CP and ILP must agree with it exactly."""

import itertools

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import ConstraintSet
from repro.cp import CPSolver, SearchLimits
from repro.engine import CompiledProblem
from repro.lp import solve_ilp
from repro.model import AttributeSchema, Infrastructure, PlacementGroup, Request
from repro.types import PlacementRule


@st.composite
def tiny_instances(draw):
    """m <= 4 servers, n <= 5 resources: at most 4^5 = 1024 placements."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, 5))
    g = draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)

    server_dc = np.zeros(m, dtype=np.int64)
    if g == 2:
        server_dc[m // 2 :] = 1
    schema = AttributeSchema(names=("cpu", "ram"))
    infra = Infrastructure(
        capacity=rng.uniform(5, 20, size=(m, 2)),
        capacity_factor=rng.uniform(0.8, 1.0, size=(m, 2)),
        operating_cost=rng.uniform(0.5, 3.0, size=m),
        usage_cost=rng.uniform(0.5, 3.0, size=m),
        max_load=np.full((m, 2), 0.8),
        max_qos=np.full((m, 2), 0.95),
        server_datacenter=server_dc,
        schema=schema,
    )

    groups = []
    if n >= 2 and draw(st.booleans()):
        rule = draw(st.sampled_from(list(PlacementRule)))
        size = draw(st.integers(2, min(3, n)))
        members = tuple(int(x) for x in rng.choice(n, size=size, replace=False))
        groups.append(PlacementGroup(rule, members))

    request = Request(
        demand=rng.uniform(1, 8, size=(n, 2)),
        qos_guarantee=rng.uniform(0.6, 0.95, size=n),
        downtime_cost=rng.uniform(0, 5, size=n),
        migration_cost=rng.uniform(0, 5, size=n),
        groups=tuple(groups),
        schema=schema,
    )
    return infra, request


def _brute_force(infra, request):
    """(is_feasible, optimal_cost) by full enumeration."""
    constraint_set = ConstraintSet(infra, request, include_assignment=False)
    rate = infra.operating_cost + infra.usage_cost
    best = np.inf
    feasible = False
    for combo in itertools.product(range(infra.m), repeat=request.n):
        genome = np.asarray(combo, dtype=np.int64)
        if constraint_set.violations(genome) == 0:
            feasible = True
            cost = float(rate[genome].sum())
            if cost < best:
                best = cost
    return feasible, best


@given(tiny_instances())
@settings(max_examples=25, deadline=None)
def test_cp_matches_brute_force(instance):
    infra, request = instance
    truth_feasible, truth_cost = _brute_force(infra, request)
    solver = CPSolver(
        CompiledProblem(infra, request), limits=SearchLimits(max_nodes=1_000_000, time_limit=30)
    )
    solution = solver.optimize()
    assert solution.proved, "tiny instance must be fully explored"
    assert solution.found == truth_feasible
    if truth_feasible:
        assert solution.cost == pytest.approx(truth_cost, rel=1e-9)


@given(tiny_instances())
@settings(max_examples=15, deadline=None)
def test_ilp_matches_brute_force(instance):
    infra, request = instance
    truth_feasible, truth_cost = _brute_force(infra, request)
    solution = solve_ilp(infra, request, time_limit=30)
    if truth_feasible:
        assert solution.optimal
        assert solution.cost == pytest.approx(truth_cost, rel=1e-6)
    else:
        assert solution.infeasible

