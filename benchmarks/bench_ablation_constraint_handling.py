"""Ablation — the four constraint-handling strategies of Section III.

The paper argues: exclusion (method 1) "excludes too many individuals";
the violation penalty "lead[s] to serious increases in response times"
(it needs far more evaluations to reach feasibility, when it does); the
tabu repair (method 2) is the one that works.  This bench runs the same
NSGA-III engine under all four handlers on one medium instance and
reports final violations, rejection rate and wall time.
"""

import pytest

from benchmarks.conftest import BENCH_EA, scenario_for
from repro.ea import (
    ExclusionHandling,
    NoHandling,
    NSGA3,
    PenaltyHandling,
    RepairHandling,
)
from repro.engine import CompiledProblem
from repro.model import Request
from repro.objectives import PopulationEvaluator
from repro.tabu import TabuRepair

_HANDLERS = ["none", "exclude", "penalty", "repair_tabu"]


def _make_handler(name, scenario, merged):
    if name == "none":
        return NoHandling()
    if name == "exclude":
        return ExclusionHandling()
    if name == "penalty":
        return PenaltyHandling(coefficient=1_000.0)
    repair = TabuRepair(CompiledProblem(scenario.infrastructure, merged), seed=0)
    return RepairHandling(repair)


@pytest.mark.parametrize("handler_name", _HANDLERS)
def test_ablation_constraint_handling(benchmark, handler_name):
    scenario = scenario_for(24, 48, seed=7, tightness=0.7)
    merged, _ = Request.concatenate(scenario.requests)
    handler = _make_handler(handler_name, scenario, merged)

    def run():
        evaluator = PopulationEvaluator(scenario.infrastructure, merged)
        engine = NSGA3(BENCH_EA, handler=handler)
        return engine.run(evaluator)

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["best_violations"] = result.best_violations()
    benchmark.extra_info["feasible_fraction"] = round(
        float(result.population.feasible_mask.mean()), 3
    )
    # The repair strategy must dominate the others on feasibility.
    if handler_name == "repair_tabu":
        assert result.best_violations() == 0
