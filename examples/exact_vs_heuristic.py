#!/usr/bin/env python3
"""How far from optimal is each algorithm?  Exact-solver ground truth.

On small instances the ILP backend (SciPy HiGHS) and the CP solver
prove the optimal usage/operating cost.  This example measures every
algorithm's cost gap against that optimum — the calibration the paper
implies when it calls constraint programming "optimal" in Figure 11.

Run:  python examples/exact_vs_heuristic.py
"""

from repro import (
    CPAllocator,
    NSGA3TabuAllocator,
    NSGAConfig,
    RoundRobinAllocator,
    ScenarioGenerator,
    ScenarioSpec,
    solve_ilp,
)
from repro.baselines import BestFitAllocator, FirstFitAllocator
from repro.cp import CPSolver, SearchLimits
from repro.engine import CompiledProblem
from repro.evaluation import format_table
from repro.model import Request


def main() -> None:
    spec = ScenarioSpec(
        servers=8,
        datacenters=2,
        vms=14,
        tightness=0.55,
        max_request_size=5,
    )
    scenario = ScenarioGenerator(spec, seed=4).generate()
    merged, _ = Request.concatenate(scenario.requests)

    # Ground truth: the ILP proves the optimum quickly (HiGHS handles
    # the near-symmetric cost plateau that makes pure branch & bound
    # enumerate).  The CP solver cross-checks with a bounded search —
    # it typically *finds* the same optimum long before it can prove it.
    ilp = solve_ilp(scenario.infrastructure, merged, time_limit=60)
    assert ilp.optimal, "instance too hard for the example"
    cp = CPSolver(
        CompiledProblem(scenario.infrastructure, merged),
        limits=SearchLimits(max_nodes=100_000, time_limit=10),
    ).optimize()
    print(f"optimal whole-window cost (ILP, proved): {ilp.cost:.2f}")
    if cp.found:
        verdict = "proved optimal" if cp.proved else "not proved within budget"
        print(
            f"CP best found: {cp.cost:.2f} ({verdict}; "
            f"{cp.stats.nodes} nodes, {cp.stats.elapsed:.2f}s)"
        )
        assert cp.cost >= ilp.cost - 1e-6, "CP below the proved optimum?!"

    config = NSGAConfig(population_size=40, max_evaluations=2000, seed=1)
    rows = []
    for allocator in (
        FirstFitAllocator(),
        BestFitAllocator(),
        RoundRobinAllocator(),
        CPAllocator(optimize=True),
        NSGA3TabuAllocator(config),
    ):
        outcome = allocator.allocate(scenario.infrastructure, scenario.requests)
        gap = (
            (outcome.provider_cost - ilp.cost) / ilp.cost * 100
            if outcome.rejection_rate == 0
            else float("nan")
        )
        rows.append(
            [
                outcome.algorithm,
                f"{outcome.rejection_rate:.2f}",
                f"{outcome.provider_cost:.2f}",
                "n/a (rejected some)" if gap != gap else f"{gap:+.1f}%",
            ]
        )
    print()
    print(
        format_table(
            ["algorithm", "rejection", "provider cost", "gap vs optimal"],
            rows,
            title="Cost gap against the proved optimum",
        )
    )


if __name__ == "__main__":
    main()
