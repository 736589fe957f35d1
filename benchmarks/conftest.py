"""Shared machinery for the figure/table benchmarks.

Every bench regenerates one artifact of the paper's Section IV.  The
pytest-benchmark table gives the execution-time figures directly
(Figures 7-8); the quality figures (9-11) additionally record their
metric in ``extra_info`` columns and print a text series table.

Budgets: the paper runs 100 scenarios x 10 000 evaluations on an Intel
NUC; the default bench budget is scaled down (documented per experiment
in EXPERIMENTS.md) so the whole harness finishes in minutes of pure
Python.  Set ``REPRO_BENCH_FULL=1`` to include the paper's largest
sizes (800 servers / 1600 VMs) in the Figure 8 sweep.
"""

from __future__ import annotations

import os

import pytest

from repro import (
    CPAllocator,
    NSGA2Allocator,
    NSGA3Allocator,
    NSGA3CPAllocator,
    NSGA3TabuAllocator,
    NSGAConfig,
    RoundRobinAllocator,
    ScenarioGenerator,
    ScenarioSpec,
    SearchLimits,
)

#: Reduced EA budget for the benches (paper: pop 100 / 10 000 evals).
BENCH_EA = NSGAConfig(population_size=20, max_evaluations=600, seed=0)

#: CP budget per request; generous enough for the bench sizes.
BENCH_CP_LIMITS = SearchLimits(max_nodes=20_000, time_limit=2.0)


def paper_algorithms() -> dict:
    """The six algorithms of Section IV, bench-budgeted."""
    return {
        "round_robin": lambda: RoundRobinAllocator(),
        "constraint_programming": lambda: CPAllocator(
            optimize=False, limits=BENCH_CP_LIMITS
        ),
        "nsga2": lambda: NSGA2Allocator(BENCH_EA),
        "nsga3": lambda: NSGA3Allocator(BENCH_EA),
        "nsga3_cp": lambda: NSGA3CPAllocator(
            BENCH_EA, repair_limits=SearchLimits(max_nodes=500, time_limit=0.1)
        ),
        "nsga3_tabu": lambda: NSGA3TabuAllocator(BENCH_EA),
    }


def scenario_for(servers: int, vms: int, seed: int = 0, tightness: float = 0.65):
    """One deterministic scenario at a sweep point."""
    spec = ScenarioSpec(
        servers=servers,
        datacenters=2 if servers < 100 else 4,
        vms=vms,
        tightness=tightness,
    )
    return ScenarioGenerator(spec, seed=seed).generate()


def full_sweep_enabled() -> bool:
    """Whether the paper-scale Figure 8 sizes are included."""
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def bench_gate_enabled() -> bool:
    """Whether benches enforce regression gates vs the committed JSON."""
    return os.environ.get("REPRO_BENCH_GATE", "0") == "1"


def bench_environment() -> dict:
    """Provenance block stamped into every bench artifact.

    A BENCH json is only comparable to a rerun on a like-for-like
    host: the core count and the numpy version both move the numbers,
    so every artifact records them instead of leaving readers to guess
    why two files disagree.
    """
    import platform

    import numpy as np

    return {
        "cpu_count": os.cpu_count() or 1,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
    }


@pytest.fixture
def algorithms():
    return paper_algorithms()
