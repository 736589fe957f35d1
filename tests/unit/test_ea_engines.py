"""Unit tests for the NSGA-II/III engines and constraint handlers."""

import numpy as np
import pytest

from repro.ea import (
    NSGA2,
    NSGA3,
    ExclusionHandling,
    NoHandling,
    NSGAConfig,
    PenaltyHandling,
    RepairHandling,
    hypervolume,
)
from repro.engine import CompiledProblem
from repro.errors import ValidationError
from repro.objectives import PopulationEvaluator
from repro.tabu import TabuRepair


@pytest.fixture
def evaluator(small_infra, small_request):
    return PopulationEvaluator(small_infra, small_request)


_FAST = NSGAConfig(population_size=20, max_evaluations=400, seed=7)


class TestEngines:
    @pytest.mark.parametrize("cls", [NSGA2, NSGA3])
    def test_respects_evaluation_budget(self, cls, evaluator):
        result = cls(_FAST).run(evaluator)
        assert result.evaluations <= _FAST.max_evaluations
        assert result.evaluations >= _FAST.population_size

    @pytest.mark.parametrize("cls", [NSGA2, NSGA3])
    def test_population_size_maintained(self, cls, evaluator):
        result = cls(_FAST).run(evaluator)
        assert len(result.population) == _FAST.population_size

    @pytest.mark.parametrize("cls", [NSGA2, NSGA3])
    def test_deterministic_given_seed(self, cls, small_infra, small_request):
        runs = []
        for _ in range(2):
            ev = PopulationEvaluator(small_infra, small_request)
            runs.append(cls(_FAST).run(ev))
        assert np.array_equal(runs[0].population.genomes, runs[1].population.genomes)

    @pytest.mark.parametrize("cls", [NSGA2, NSGA3])
    def test_history_tracking(self, cls, evaluator):
        result = cls(_FAST, track_history=True).run(evaluator)
        assert len(result.history) >= 2
        assert result.history[0].generation == 0
        assert result.history[-1].evaluations == result.evaluations

    def test_best_aggregate_never_worsens_with_repair(
        self, small_infra, small_request
    ):
        repair = TabuRepair(CompiledProblem(small_infra, small_request), seed=0)
        ev = PopulationEvaluator(small_infra, small_request)
        result = NSGA3(
            _FAST, handler=RepairHandling(repair), track_history=True
        ).run(ev)
        feasible_fracs = [s.feasible_fraction for s in result.history]
        assert feasible_fracs[-1] >= feasible_fracs[0]

    def test_time_limit_stops_early(self, evaluator):
        config = NSGAConfig(
            population_size=20, max_evaluations=1_000_000, time_limit=0.2, seed=0
        )
        result = NSGA2(config).run(evaluator)
        assert result.evaluations < 1_000_000

    def test_pareto_front_is_nondominated(self, evaluator):
        result = NSGA2(_FAST).run(evaluator)
        front = result.pareto_front()
        from repro.utils.pareto import dominance_matrix

        dom = dominance_matrix(front.objectives)
        assert not dom.any()

    def test_best_genome_shape(self, evaluator, small_request):
        result = NSGA3(_FAST).run(evaluator)
        genome = result.best_genome()
        assert genome.shape == (small_request.n,)


class TestHandlers:
    def test_no_handling_passthrough(self):
        handler = NoHandling()
        genomes = np.arange(6).reshape(2, 3)
        assert handler.prepare(genomes) is genomes
        objs = np.ones((2, 3))
        assert handler.effective_objectives(objs, np.array([0, 5])) is objs

    def test_penalty_adds_violations(self):
        handler = PenaltyHandling(coefficient=100.0)
        objs = np.ones((2, 3))
        out = handler.effective_objectives(objs, np.array([0, 2]))
        assert np.allclose(out[0], 1.0)
        assert np.allclose(out[1], 201.0)

    def test_penalty_negative_coefficient_rejected(self):
        with pytest.raises(ValidationError):
            PenaltyHandling(coefficient=-1.0)

    def test_exclusion_uses_tiers(self):
        assert ExclusionHandling().uses_feasibility_tiers

    def test_repair_calls_function_and_counts(self):
        calls = []

        def fake_repair(genomes):
            calls.append(genomes.shape)
            return genomes

        handler = RepairHandling(fake_repair)
        genomes = np.zeros((4, 3), dtype=np.int64)
        handler.prepare(genomes)
        handler.prepare(genomes)
        assert handler.repair_calls == 2 and len(calls) == 2

    def test_repair_shape_change_rejected(self):
        handler = RepairHandling(lambda g: g[:1])
        with pytest.raises(ValidationError):
            handler.prepare(np.zeros((4, 3), dtype=np.int64))

    def test_repaired_run_ends_feasible(self, small_infra, small_request):
        repair = TabuRepair(CompiledProblem(small_infra, small_request), seed=1)
        ev = PopulationEvaluator(small_infra, small_request)
        result = NSGA3(_FAST, handler=RepairHandling(repair)).run(ev)
        # The small instance is easy; the final best must be feasible.
        assert result.best_violations() == 0

    def test_unmodified_run_may_violate_tight_instance(
        self, small_infra, small_request
    ):
        # Not asserting violations > 0 (stochastic), but the handler
        # must not have filtered anything: population may contain
        # infeasible individuals.
        ev = PopulationEvaluator(small_infra, small_request)
        result = NSGA2(_FAST, handler=NoHandling()).run(ev)
        assert len(result.population) == _FAST.population_size


class TestHypervolume:
    def test_2d_rectangle(self):
        hv = hypervolume(np.array([[1.0, 1.0]]), np.array([2.0, 2.0]))
        assert hv == pytest.approx(1.0)

    def test_2d_staircase(self):
        points = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        hv = hypervolume(points, np.array([4.0, 4.0]))
        # Union of rectangles: 3*1 + 2*1 + 1*1 ... computed by inclusion:
        # sweep: (4-1)*(4-3)=3, (4-2)*(3-2)=2, (4-3)*(2-1)=1 -> 6.
        assert hv == pytest.approx(6.0)

    def test_3d_box(self):
        hv = hypervolume(np.array([[0.0, 0.0, 0.0]]), np.array([2.0, 3.0, 4.0]))
        assert hv == pytest.approx(24.0)

    def test_3d_matches_monte_carlo(self):
        rng = np.random.default_rng(0)
        points = rng.random((6, 3))
        ref = np.array([1.0, 1.0, 1.0])
        hv = hypervolume(points, ref)
        samples = rng.random((200_000, 3))
        dominated = np.zeros(len(samples), dtype=bool)
        for p in points:
            dominated |= np.all(samples >= p, axis=1)
        assert hv == pytest.approx(dominated.mean(), abs=0.01)

    def test_points_outside_reference_ignored(self):
        hv = hypervolume(
            np.array([[1.0, 1.0], [5.0, 5.0]]), np.array([2.0, 2.0])
        )
        assert hv == pytest.approx(1.0)

    def test_empty_front(self):
        assert hypervolume(np.empty((0, 2)), np.array([1.0, 1.0])) == 0.0

    def test_adding_point_never_decreases(self):
        rng = np.random.default_rng(1)
        points = rng.random((5, 2))
        ref = np.array([1.5, 1.5])
        base = hypervolume(points, ref)
        extended = hypervolume(np.vstack([points, rng.random((1, 2))]), ref)
        assert extended >= base - 1e-12

    def test_unsupported_dims_rejected(self):
        with pytest.raises(ValidationError):
            hypervolume(np.ones((2, 4)), np.full(4, 2.0))


class TestStallTermination:
    def test_stall_stops_early(self, small_infra, small_request):
        from repro.objectives import PopulationEvaluator

        config = NSGAConfig(
            population_size=16,
            max_evaluations=100_000,
            stall_generations=3,
            seed=0,
        )
        evaluator = PopulationEvaluator(small_infra, small_request)
        result = NSGA2(config, track_history=True).run(evaluator)
        # The easy instance converges immediately; the stall detector
        # must end the run long before the huge budget.
        assert result.evaluations < 100_000

    def test_stall_none_runs_full_budget(self, small_infra, small_request):
        from repro.objectives import PopulationEvaluator

        config = NSGAConfig(
            population_size=16, max_evaluations=480, stall_generations=None, seed=0
        )
        evaluator = PopulationEvaluator(small_infra, small_request)
        result = NSGA2(config).run(evaluator)
        assert result.evaluations == 480

    def test_stall_validation(self):
        with pytest.raises(ValidationError):
            NSGAConfig(stall_generations=0)
