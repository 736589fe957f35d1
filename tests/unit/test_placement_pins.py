"""Byte pins of the placers that no benchmark workload runs.

The six greedy baselines, the CP allocator, the NSGA-III + CP hybrid
and admission's rejection diagnosis place VMs from the compiled
instance, the greedy ones and the diagnosis through the neighbour
finder's validity test.  Each digest below is a blake2b hash of what
one placer produced on generated instances, with and without
committed usage: the assignments and accepted masks of its outcomes,
or the diagnosis's reasons.  Objective floats are left out, because
their last bit can differ between libm builds.  A refactor of the
placers must leave every digest as it is.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import NSGAConfig
from repro.baselines import (
    BestFitAllocator,
    FilterSchedulerAllocator,
    FirstFitAllocator,
    RandomAllocator,
    RoundRobinAllocator,
    WorstFitAllocator,
)
from repro.cp.allocator import CPAllocator
from repro.cp.search import SearchLimits
from repro.hybrid.nsga_allocators import NSGA3CPAllocator
from repro.service import ServiceState
from repro.service.admission import diagnose_rejection
from repro.workloads.generator import ScenarioGenerator, ScenarioSpec

#: (servers, vms) of the generated instances, cycled.
_SIZES = ((4, 8), (6, 14), (8, 20), (12, 30), (16, 40))
_INSTANCES = 20


def _instance(index: int):
    """Generated instance ``index`` and its committed usage (a uniform
    0-40% of each cell's effective capacity)."""
    rng = np.random.default_rng([2028, index])
    servers, vms = _SIZES[index % len(_SIZES)]
    spec = ScenarioSpec(
        servers=servers,
        datacenters=min(servers, int(rng.integers(1, 4))),
        vms=vms,
        tightness=float(rng.uniform(0.5, 1.1)),
        heterogeneity=float(rng.uniform(0.0, 0.5)),
        affinity_probability=float(rng.uniform(0.3, 0.9)),
    )
    scenario = ScenarioGenerator(spec, seed=int(rng.integers(2**31))).generate()
    capacity = scenario.infrastructure.effective_capacity
    base_usage = rng.uniform(0.0, 0.4, size=capacity.shape) * capacity
    return scenario, base_usage


def _digest(outcomes) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for outcome in outcomes:
        digest.update(np.asarray(outcome.assignment, dtype=np.int64).tobytes())
        digest.update(np.asarray(outcome.accepted, dtype=bool).tobytes())
    return digest.hexdigest()


def _allocations(factory, indices) -> str:
    """Digest of one fresh allocator per instance, placing the window
    on the empty estate and over committed usage."""
    outcomes = []
    for index in indices:
        scenario, base_usage = _instance(index)
        for usage in (None, base_usage):
            allocator = factory()
            try:
                outcomes.append(
                    allocator.allocate(
                        scenario.infrastructure, scenario.requests, base_usage=usage
                    )
                )
            finally:
                allocator.close()
    return _digest(outcomes)


#: name -> (factory, digest at the commit the pins were recorded).
_GREEDY = {
    "round_robin": (RoundRobinAllocator, "2951d56df2ccd41f597330e0a1eace73"),
    "first_fit": (FirstFitAllocator, "5ba5898163525b83ca31cfc4accae5dc"),
    "best_fit": (BestFitAllocator, "b253a99b4008f2e498929cd9e52aed4e"),
    "worst_fit": (WorstFitAllocator, "93b24ee5840076decaaa644a3bf8bba8"),
    "random_fit": (lambda: RandomAllocator(seed=3), "f30afe42154cbdf0422c9971d121d3ce"),
    "filter_scheduler": (
        lambda: FilterSchedulerAllocator(cost_weight=2.0),
        "996abf51e1fc25f712e6e1f426931fca",
    ),
}

#: Node budgets only: a wall-clock limit would make the bytes depend on
#: the host.
_CP_DIGEST = "ab66fdc0f0f944d1d46cbf4e9b571109"
_NSGA3_CP_DIGEST = "2b6f2e1fe41d8bc2f32bab20cb8c84a5"
_DIAGNOSIS_DIGEST = "2f7aa1ada5be44e8ba5503e8472afa0d"


@pytest.mark.parametrize("name", sorted(_GREEDY))
def test_greedy_placements_are_pinned(name):
    factory, expected = _GREEDY[name]
    assert _allocations(factory, range(_INSTANCES)) == expected


def test_cp_allocator_placements_are_pinned():
    factory = lambda: CPAllocator(limits=SearchLimits(max_nodes=400))  # noqa: E731
    assert _allocations(factory, range(_INSTANCES)) == _CP_DIGEST


def test_nsga3_cp_placements_are_pinned():
    config = NSGAConfig(population_size=8, max_evaluations=32, seed=5)
    factory = lambda: NSGA3CPAllocator(  # noqa: E731
        config, repair_limits=SearchLimits(max_nodes=60)
    )
    assert _allocations(factory, (0, 1, 2)) == _NSGA3_CP_DIGEST


def test_rejection_diagnoses_are_pinned():
    """Admission states with hosted tenants and one failed server; the
    hosted window's requests and a second generated window's are each
    diagnosed against them."""
    reasons = []
    for index in range(0, _INSTANCES, 4):
        scenario, _ = _instance(index)
        second, _ = _instance(index + 1)
        state = ServiceState(scenario.infrastructure, seed=index)
        state.admit(
            arrivals=[(f"t{i}", r) for i, r in enumerate(scenario.requests)]
        )
        state.admit(failures=[index % scenario.infrastructure.m])
        for request in scenario.requests + second.requests:
            reasons.append(diagnose_rejection(state, request))
    assert set(reasons) == {"capacity", "affinity"}
    digest = hashlib.blake2b("|".join(reasons).encode(), digest_size=16)
    assert digest.hexdigest() == _DIAGNOSIS_DIGEST
