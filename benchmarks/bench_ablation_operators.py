"""Ablation — SBX/PM versus discrete operators, and repair neighbour
orders.

The paper uses "SBX and PM standard" on integer server-id genomes,
which implicitly assumes numerically close server ids are related
(true under the generator's contiguous datacenter layout).  The
discrete pair (uniform crossover + random-reset mutation) is the
order-free alternative; this bench compares final front quality
(hypervolume) and feasibility under the tabu-repair handler.

A second axis ablates the Fig. 6 neighbour order: the paper's literal
first-fit scan vs. best-fit packing vs. random walk.
"""

import numpy as np
import pytest

from benchmarks.conftest import BENCH_EA, scenario_for
from repro.ea import NSGA3, RepairHandling, hypervolume
from repro.ea.operators import random_reset_mutation, uniform_crossover
from repro.model import Request
from repro.objectives import PopulationEvaluator
from repro.tabu import TabuRepair


class _DiscreteNSGA3(NSGA3):
    """NSGA-III variant using the categorical operator pair
    (overrides the engine's variation template method)."""

    algorithm_name = "nsga3_discrete_ops"

    def _variation(self, parents, n_servers, rng):
        offspring = uniform_crossover(
            parents, rate=self.config.sbx_rate, seed=rng
        )
        return random_reset_mutation(
            offspring, n_servers=n_servers, rate=self.config.pm_rate, seed=rng
        )


@pytest.mark.parametrize("operators", ["sbx_pm", "uniform_reset"])
def test_ablation_variation_operators(benchmark, operators):
    scenario = scenario_for(24, 48, seed=8, tightness=0.65)
    merged, _ = Request.concatenate(scenario.requests)

    def run():
        repair = TabuRepair(scenario.infrastructure, merged, seed=0)
        handler = RepairHandling(repair)
        cls = NSGA3 if operators == "sbx_pm" else _DiscreteNSGA3
        engine = cls(BENCH_EA, handler=handler)
        evaluator = PopulationEvaluator(scenario.infrastructure, merged)
        return engine.run(evaluator)

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    front = result.pareto_front()
    reference = result.population.objectives.max(axis=0) * 1.1 + 1.0
    benchmark.extra_info["front_size"] = len(front)
    benchmark.extra_info["hypervolume"] = round(
        hypervolume(front.objectives, reference), 1
    )
    benchmark.extra_info["best_violations"] = result.best_violations()
    assert result.best_violations() == 0


@pytest.mark.parametrize("order", ["first", "best_fit", "random"])
def test_ablation_repair_neighbour_order(benchmark, order):
    scenario = scenario_for(24, 48, seed=9, tightness=0.7)
    merged, _ = Request.concatenate(scenario.requests)
    rng = np.random.default_rng(0)
    population = rng.integers(0, scenario.infrastructure.m, size=(30, merged.n))

    def run():
        repair = TabuRepair(
            scenario.infrastructure, merged, order=order, seed=1
        )
        return repair(population), repair

    (fixed, repair) = benchmark.pedantic(
        run, rounds=1, iterations=1, warmup_rounds=0
    )
    from repro.constraints import ConstraintSet

    constraint_set = ConstraintSet(
        scenario.infrastructure, merged, include_assignment=False
    )
    violations = constraint_set.batch_violations(fixed)
    benchmark.extra_info["mean_violations_after"] = round(
        float(violations.mean()), 2
    )
    benchmark.extra_info["moves"] = repair.moves_performed
    before = constraint_set.batch_violations(population)
    assert np.all(violations <= before)
