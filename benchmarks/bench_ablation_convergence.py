"""Ablation — convergence speed of the constraint-handling strategies.

The paper's strongest process claim: the violation-penalty approach
"happened to lead to serious increases in response times whereas our
primary goal was to obtain a response in a very short timeframe
(<2mn).  In some challenging cases, the algorithm would result in no
solution found yet even after having computed for a whole week."

This bench measures *evaluations-to-first-feasible* under each
strategy on a constrained instance.  Expected: the tabu-repair run is
feasible essentially immediately (the repair manufactures feasibility),
while penalty/none/exclude need far more budget — or never get there
within it, reproducing the paper's "no solution found" experience at
bench scale.
"""

import pytest

from benchmarks.conftest import scenario_for
from repro.ea import (
    ExclusionHandling,
    NoHandling,
    NSGA3,
    NSGAConfig,
    PenaltyHandling,
    RepairHandling,
)
from repro.engine import CompiledProblem
from repro.evaluation import convergence_summary
from repro.model import Request
from repro.objectives import PopulationEvaluator
from repro.tabu import TabuRepair

_CONFIG = NSGAConfig(population_size=20, max_evaluations=1200, seed=4)
_STRATEGIES = ["repair_tabu", "penalty", "exclude", "none"]


def _handler(name, scenario, merged):
    if name == "repair_tabu":
        return RepairHandling(
            TabuRepair(CompiledProblem(scenario.infrastructure, merged), seed=0)
        )
    if name == "penalty":
        return PenaltyHandling(coefficient=1_000.0)
    if name == "exclude":
        return ExclusionHandling()
    return NoHandling()


@pytest.mark.parametrize("strategy", _STRATEGIES)
def test_ablation_convergence_to_feasibility(benchmark, strategy, capsys):
    scenario = scenario_for(24, 48, seed=12, tightness=0.7)
    merged, _ = Request.concatenate(scenario.requests)
    handler = _handler(strategy, scenario, merged)

    def run():
        evaluator = PopulationEvaluator(scenario.infrastructure, merged)
        engine = NSGA3(_CONFIG, handler=handler, track_history=True)
        return engine.run(evaluator)

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    summary = convergence_summary(result)
    to_feasible = summary["evals_to_feasible"]
    benchmark.extra_info["evals_to_feasible"] = to_feasible
    benchmark.extra_info["final_feasible_fraction"] = summary[
        "final_feasible_fraction"
    ]

    if strategy == "repair_tabu":
        # The repair makes the *initial* population feasible.
        assert to_feasible == _CONFIG.population_size
    else:
        # The paper's complaint: without repair, feasibility arrives
        # late or never within the budget.
        assert to_feasible is None or to_feasible >= _CONFIG.population_size
