"""Unit tests for convergence analysis, warm starts and the scheduler
summary."""

import numpy as np
import pytest

from repro.baselines import FirstFitAllocator
from repro.ea import NSGA3, NSGAConfig, RepairHandling
from repro.ea.result import EvolutionResult, GenerationStats
from repro.ea.population import Population
from repro.engine import CompiledProblem
from repro.errors import ValidationError
from repro.evaluation import (
    convergence_summary,
    evaluations_to_feasible,
    evaluations_to_within,
)
from repro.model import Request
from repro.objectives import PopulationEvaluator
from repro.scheduler import TimeWindowScheduler, scenario_metrics
from repro.tabu import TabuRepair


def _result(history):
    pop = Population(
        genomes=np.zeros((2, 2), dtype=np.int64),
        objectives=np.ones((2, 3)),
        violations=np.zeros(2, dtype=np.int64),
    )
    return EvolutionResult(
        population=pop,
        evaluations=history[-1].evaluations,
        elapsed=1.0,
        history=history,
        algorithm="test",
    )


def _stats(gen, evals, best, feasible):
    return GenerationStats(
        generation=gen,
        evaluations=evals,
        best_aggregate=best,
        mean_aggregate=best * 2,
        feasible_fraction=feasible,
        min_violations=0 if feasible > 0 else 3,
    )


class TestConvergenceHelpers:
    def test_evals_to_feasible(self):
        history = [
            _stats(0, 100, 50.0, 0.0),
            _stats(1, 200, 40.0, 0.0),
            _stats(2, 300, 30.0, 0.25),
        ]
        assert evaluations_to_feasible(_result(history)) == 300

    def test_never_feasible_is_none(self):
        history = [_stats(0, 100, 50.0, 0.0)]
        assert evaluations_to_feasible(_result(history)) is None

    def test_evals_to_within(self):
        history = [
            _stats(0, 100, 100.0, 1.0),
            _stats(1, 200, 52.0, 1.0),
            _stats(2, 300, 50.0, 1.0),
        ]
        # within 5% of 50 => <= 52.5, reached at generation 1.
        assert evaluations_to_within(_result(history), 1.05) == 200
        assert evaluations_to_within(_result(history), 1.0) == 300

    def test_factor_validated(self):
        history = [_stats(0, 100, 1.0, 1.0)]
        with pytest.raises(ValueError):
            evaluations_to_within(_result(history), 0.5)

    def test_no_history_rejected(self):
        pop = Population(
            genomes=np.zeros((1, 2), dtype=np.int64),
            objectives=np.ones((1, 3)),
            violations=np.zeros(1, dtype=np.int64),
        )
        bare = EvolutionResult(
            population=pop, evaluations=10, elapsed=0.1, history=[]
        )
        with pytest.raises(ValueError):
            evaluations_to_feasible(bare)

    def test_summary_keys(self, small_infra, small_request):
        repair = TabuRepair(CompiledProblem(small_infra, small_request), seed=0)
        evaluator = PopulationEvaluator(small_infra, small_request)
        result = NSGA3(
            NSGAConfig(population_size=16, max_evaluations=320, seed=0),
            handler=RepairHandling(repair),
            track_history=True,
        ).run(evaluator)
        summary = convergence_summary(result)
        assert summary["evals_to_feasible"] is not None
        assert summary["evaluations"] <= 320
        assert 0 <= summary["final_feasible_fraction"] <= 1


class TestWarmStart:
    def test_seeded_run_contains_seed_lineage(self, small_infra, small_request):
        seed_genome = FirstFitAllocator().allocate(small_infra, [small_request]).assignment
        config = NSGAConfig(population_size=16, max_evaluations=320, seed=1)
        evaluator = PopulationEvaluator(small_infra, small_request)
        result = NSGA3(config, track_history=True).run(
            evaluator, initial_genomes=seed_genome
        )
        # First fit places this easy instance without a violation, so
        # the very first generation already has feasible members.
        assert result.history[0].feasible_fraction > 0

    def test_wrong_seed_length_rejected(self, small_infra, small_request):
        config = NSGAConfig(population_size=16, max_evaluations=320, seed=1)
        evaluator = PopulationEvaluator(small_infra, small_request)
        with pytest.raises(ValueError):
            NSGA3(config).run(
                evaluator, initial_genomes=np.zeros(3, dtype=np.int64)
            )

    def test_extra_seed_rows_ignored(self, small_infra, small_request):
        config = NSGAConfig(population_size=16, max_evaluations=320, seed=1)
        seeds = np.zeros((40, small_request.n), dtype=np.int64)
        evaluator = PopulationEvaluator(small_infra, small_request)
        result = NSGA3(config).run(evaluator, initial_genomes=seeds)
        assert len(result.population) == 16


class TestSchedulerSummary:
    def test_rollup(self, small_infra):
        scheduler = TimeWindowScheduler(small_infra, FirstFitAllocator())
        request = Request(
            demand=np.ones((2, 3)),
            qos_guarantee=np.full(2, 0.9),
            downtime_cost=np.ones(2),
            migration_cost=np.ones(2),
        )
        for i in range(4):
            scheduler.submit(f"r{i}", request, at=float(i))
        scheduler.schedule_departure("r0", at=2.5)
        reports = scheduler.run()
        summary = scenario_metrics(reports)
        assert summary.arrivals == 4
        assert summary.accepted == 4
        assert summary.departures == 1
        assert summary.rejection_rate == 0.0
        assert summary.windows == len(reports)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            scenario_metrics([])
