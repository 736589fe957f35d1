"""Seed-determinism regressions across the solver portfolio.

Reproducibility is an acceptance criterion of the evaluation harness:
the same seed must yield byte-identical genomes and objective vectors
on repeated runs, and (for the stochastic solvers) different seeds must
explore differently.  These tests pin that contract for the hybrid
NSGA-III allocator, the standalone tabu search, the CP allocator and
the round-robin baseline.
"""

import numpy as np
import pytest

from repro.baselines import RoundRobinAllocator
from repro.cp import CPAllocator, SearchLimits
from repro.ea import NSGAConfig
from repro.hybrid import NSGA3TabuAllocator
from repro.model import Request
from repro.objectives import PopulationEvaluator
from repro.tabu import TabuSearch
from repro.workloads import ScenarioGenerator, ScenarioSpec


@pytest.fixture(scope="module")
def scenario():
    spec = ScenarioSpec(servers=6, datacenters=2, vms=12, tightness=0.8)
    return ScenarioGenerator(spec, seed=42).generate()


def _identical(a, b):
    """Byte-identical outcomes: genome and objective vector."""
    return (
        a.assignment.tobytes() == b.assignment.tobytes()
        and a.objectives.tobytes() == b.objectives.tobytes()
    )


def _nsga_config(seed):
    return NSGAConfig(
        population_size=12,
        max_evaluations=120,
        reference_point_divisions=4,
        seed=seed,
    )


def test_nsga3_tabu_same_seed_byte_identical(scenario):
    runs = [
        NSGA3TabuAllocator(config=_nsga_config(5)).allocate(
            scenario.infrastructure, scenario.requests
        )
        for _ in range(2)
    ]
    assert _identical(runs[0], runs[1])


def test_nsga3_tabu_different_seeds_differ(scenario):
    a = NSGA3TabuAllocator(config=_nsga_config(5)).allocate(
        scenario.infrastructure, scenario.requests
    )
    b = NSGA3TabuAllocator(config=_nsga_config(6)).allocate(
        scenario.infrastructure, scenario.requests
    )
    # Population trajectories must diverge; on this instance the
    # selected genomes differ (if both converged to one global optimum
    # this assertion would need a harder instance, not a looser check).
    assert not _identical(a, b)


def test_tabu_search_same_seed_byte_identical(scenario):
    merged, _ = Request.concatenate(scenario.requests)
    rng = np.random.default_rng(0)
    initial = rng.integers(0, scenario.infrastructure.m, size=merged.n)

    def run(seed):
        evaluator = PopulationEvaluator(scenario.infrastructure, merged)
        search = TabuSearch(
            evaluator, max_iterations=60, neighborhood_size=16, seed=seed
        )
        return search.run(initial)

    a, b = run(9), run(9)
    assert a.assignment.tobytes() == b.assignment.tobytes()
    assert a.objectives.tobytes() == b.objectives.tobytes()
    assert a.evaluations == b.evaluations

    c = run(10)
    assert (
        a.assignment.tobytes() != c.assignment.tobytes()
        or a.objectives.tobytes() != c.objectives.tobytes()
    )


def test_cp_allocator_is_deterministic(scenario):
    limits = SearchLimits(max_nodes=5_000, time_limit=5.0)
    runs = [
        CPAllocator(limits=limits).allocate(
            scenario.infrastructure, scenario.requests
        )
        for _ in range(2)
    ]
    assert _identical(runs[0], runs[1])
    assert runs[0].accepted.tobytes() == runs[1].accepted.tobytes()


def test_round_robin_same_seed_byte_identical(scenario):
    """Round robin draws nothing random: two runs match byte for byte."""
    runs = [
        RoundRobinAllocator().allocate(
            scenario.infrastructure, scenario.requests
        )
        for _ in range(2)
    ]
    assert _identical(runs[0], runs[1])
    assert runs[0].accepted.tobytes() == runs[1].accepted.tobytes()
