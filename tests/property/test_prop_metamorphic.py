"""Metamorphic-law property tests, end to end through real allocators.

Every law in :mod:`repro.verify.metamorphic` is a theorem of the
Section III model equations, so it must hold for *any* placement — in
particular for placements produced by the actual allocators on
generated scenarios.  Each test below allocates a window, then pushes
the resulting assignment through the laws and asserts zero mismatches.
"""

import numpy as np
import pytest

from repro.baselines import (
    BestFitAllocator,
    FirstFitAllocator,
    RoundRobinAllocator,
)
from repro.model.placement import UNPLACED
from repro.verify import (
    ALL_LAWS,
    CapacityInflationLaw,
    CostScalingLaw,
    DuplicateRequestIdempotenceLaw,
    ServerPermutationLaw,
    run_laws,
)
from repro.workloads import ScenarioGenerator, ScenarioSpec

ALLOCATORS = {
    "round_robin": RoundRobinAllocator,
    "first_fit": FirstFitAllocator,
    "best_fit": BestFitAllocator,
}

SIZES = [(6, 10), (10, 24), (20, 40)]


def _scenario(servers, vms, seed, *, tightness=0.8):
    spec = ScenarioSpec(
        servers=servers, datacenters=2, vms=vms, tightness=tightness
    )
    return ScenarioGenerator(spec, seed=seed).generate()


@pytest.mark.parametrize("name", sorted(ALLOCATORS))
@pytest.mark.parametrize("servers,vms", SIZES)
def test_all_laws_hold_for_allocator_outcomes(name, servers, vms):
    """All four laws hold for every allocator's outcome on each size."""
    scenario = _scenario(servers, vms, seed=servers + vms)
    outcome = ALLOCATORS[name]().allocate(
        scenario.infrastructure, scenario.requests
    )
    rng = np.random.default_rng(7)
    report = run_laws(
        scenario.infrastructure,
        scenario.requests,
        outcome.assignment,
        rng=rng,
    )
    assert report.ok, report.format()


def test_laws_hold_with_window_dynamics():
    """Laws also hold when previous assignments feed the migration and
    downtime terms (the cross-window allocation path)."""
    scenario = _scenario(8, 16, seed=3)
    outcome = RoundRobinAllocator().allocate(
        scenario.infrastructure, scenario.requests
    )
    rng = np.random.default_rng(11)
    previous = rng.integers(
        0, scenario.infrastructure.m, size=outcome.assignment.size
    )
    report = run_laws(
        scenario.infrastructure,
        scenario.requests,
        outcome.assignment,
        rng=rng,
        previous_assignment=previous,
    )
    assert report.ok, report.format()


def test_laws_hold_on_overcommitted_scenarios():
    """The laws are theorems even when the assignment is infeasible
    (overcommitted instances with rejections and capacity overruns)."""
    scenario = _scenario(4, 24, seed=5, tightness=1.6)
    rng = np.random.default_rng(13)
    n = sum(r.n for r in scenario.requests)
    # A deliberately bad assignment: everything crammed at random.
    assignment = rng.integers(0, scenario.infrastructure.m, size=n)
    assignment[rng.random(n) < 0.15] = UNPLACED
    report = run_laws(
        scenario.infrastructure,
        scenario.requests,
        assignment,
        rng=rng,
    )
    assert report.ok, report.format()


@pytest.mark.parametrize(
    "law_cls",
    [
        ServerPermutationLaw,
        CapacityInflationLaw,
        CostScalingLaw,
        DuplicateRequestIdempotenceLaw,
    ],
)
def test_each_law_runs_individually(law_cls):
    """Each law can be selected on its own through run_laws(laws=...)."""
    scenario = _scenario(6, 12, seed=1)
    outcome = FirstFitAllocator().allocate(
        scenario.infrastructure, scenario.requests
    )
    report = run_laws(
        scenario.infrastructure,
        scenario.requests,
        outcome.assignment,
        rng=np.random.default_rng(2),
        laws=[law_cls()],
    )
    assert report.ok, report.format()
    assert report.stats["laws"] == 1


def test_all_laws_catalog_is_complete():
    """ISSUE acceptance: at least the four documented laws are active."""
    names = {law.name for law in ALL_LAWS}
    assert {
        "server_permutation",
        "capacity_inflation",
        "cost_scaling",
        "duplicate_request_idempotence",
    } <= names
