"""Integration tests asserting the *shape* of the paper's figures on
miniature sweeps: who wins, who violates, who scales.

These are the qualitative claims of Section IV:

* Fig. 7  — greedy/CP faster than evolutionary algorithms on small
  problems;
* Fig. 9  — NSGA-III+Tabu rejects no more than Round Robin and far less
  than unmodified NSGA;
* Fig. 10 — only unmodified NSGA-II/III violate constraints;
* Fig. 11 — NSGA-III+Tabu provider cost stays within a reasonable
  factor of the CP cost.
"""

import pytest

from repro import (
    CPAllocator,
    NSGA3Allocator,
    NSGA3TabuAllocator,
    NSGAConfig,
    RoundRobinAllocator,
    ScenarioSpec,
)
from repro.evaluation import ExperimentRunner

_FAST = NSGAConfig(population_size=20, max_evaluations=600, seed=1)

FACTORIES = {
    "round_robin": lambda: RoundRobinAllocator(),
    "constraint_programming": lambda: CPAllocator(optimize=False),
    "nsga3": lambda: NSGA3Allocator(_FAST),
    "nsga3_tabu": lambda: NSGA3TabuAllocator(_FAST),
}


@pytest.fixture(scope="module")
def sweep():
    runner = ExperimentRunner(FACTORIES, runs=3, seed=11)
    specs = [
        ScenarioSpec(servers=16, datacenters=2, vms=32, tightness=0.65),
        ScenarioSpec(servers=32, datacenters=2, vms=64, tightness=0.65),
    ]
    return runner.run_sweep(specs)


class TestFigureShapes:
    def test_fig7_greedy_faster_than_ea_on_small_problems(self, sweep):
        small = sweep.sizes()[0]
        rr = sweep.aggregate("round_robin", small).mean_elapsed
        tabu = sweep.aggregate("nsga3_tabu", small).mean_elapsed
        assert rr < tabu

    def test_fig9_tabu_rejection_at_most_round_robin(self, sweep):
        for size in sweep.sizes():
            tabu = sweep.aggregate("nsga3_tabu", size).mean_rejection_rate
            rr = sweep.aggregate("round_robin", size).mean_rejection_rate
            assert tabu <= rr + 0.05, size

    def test_fig9_unmodified_nsga_rejects_most(self, sweep):
        for size in sweep.sizes():
            plain = sweep.aggregate("nsga3", size).mean_rejection_rate
            tabu = sweep.aggregate("nsga3_tabu", size).mean_rejection_rate
            assert plain >= tabu, size

    def test_fig10_only_unmodified_nsga_violates(self, sweep):
        for size in sweep.sizes():
            assert sweep.aggregate("round_robin", size).mean_violations == 0
            assert (
                sweep.aggregate("constraint_programming", size).mean_violations
                == 0
            )
            assert sweep.aggregate("nsga3_tabu", size).mean_violations == 0
            # Unmodified NSGA-III violates on these tight instances.
            assert sweep.aggregate("nsga3", size).mean_violations > 0

    def test_fig11_tabu_cost_reasonable_vs_cp(self, sweep):
        for size in sweep.sizes():
            tabu = sweep.aggregate("nsga3_tabu", size)
            cp = sweep.aggregate("constraint_programming", size)
            # "at higher costs than optimal albeit still reasonable" —
            # CP rejects some requests (its cost covers fewer VMs), so
            # allow a generous but bounded factor.
            assert tabu.mean_provider_cost <= 2.0 * cp.mean_provider_cost, size

    def test_series_accessor_consistency(self, sweep):
        series = sweep.series("violations")
        assert set(series) == set(FACTORIES)
        for values in series.values():
            assert len(values) == len(sweep.sizes())
