"""Anytime contract, incumbent pool and portfolio racer.

Covers the PR's acceptance bars: every allocator family honours the
``start()``/``step()``/``finish()`` contract byte-identically to its
blocking ``allocate()``, the shared pool admits only proven placements,
the portfolio race is deterministic per seed, deadline-bounded,
resumable from a composite checkpoint, and leak-free on close.
"""

import multiprocessing
import time

import numpy as np
import pytest

from repro import (
    CPAllocator,
    NSGAConfig,
    NSGA3TabuAllocator,
    RoundRobinAllocator,
)
from repro.ea.hypervolume import (
    hypervolume,
    reference_point,
    reference_point_cache_info,
)
from repro.engine.compiled import CompiledProblem
from repro.errors import ValidationError
from repro.model import Request
from repro.model.placement import UNPLACED
from repro.objectives import EnergyCost
from repro.portfolio import IncumbentPool, PortfolioAllocator, parse_members
from repro.runtime.signals import clear_shutdown, request_shutdown
from repro.tabu import TabuSearch
from repro.workloads.generator import ScenarioGenerator, ScenarioSpec

_CONFIG = NSGAConfig(
    population_size=12,
    max_evaluations=96,
    reference_point_divisions=4,
    seed=3,
)


def _scenario(seed=3, servers=6, vms=10, tightness=0.8):
    spec = ScenarioSpec(
        servers=servers, datacenters=2, vms=vms, tightness=tightness
    )
    return ScenarioGenerator(spec, seed=seed).generate()


def _assert_outcomes_equal(a, b):
    assert a.assignment.tobytes() == b.assignment.tobytes()
    assert np.asarray(a.objectives).tobytes() == np.asarray(b.objectives).tobytes()
    assert a.accepted.tobytes() == b.accepted.tobytes()


class TestAnytimeContract:
    def test_nsga_allocate_equals_stepwise(self):
        scenario = _scenario()
        batch = NSGA3TabuAllocator(_CONFIG).allocate(
            scenario.infrastructure, scenario.requests
        )
        run = NSGA3TabuAllocator(_CONFIG).start(
            scenario.infrastructure, scenario.requests
        )
        steps = 0
        while run.step():
            steps += 1
            assert run.best_solution().shape == batch.assignment.shape
        stepwise = run.finish()
        assert steps > 1  # generation-granular, not one blocking call
        _assert_outcomes_equal(batch, stepwise)

    def test_finish_is_idempotent(self):
        scenario = _scenario()
        run = NSGA3TabuAllocator(_CONFIG).start(
            scenario.infrastructure, scenario.requests
        )
        while run.step():
            pass
        first = run.finish()
        second = run.finish()
        _assert_outcomes_equal(first, second)

    def test_cp_allocate_equals_stepwise(self):
        scenario = _scenario()
        allocator = CPAllocator(optimize=False)
        batch = allocator.allocate(scenario.infrastructure, scenario.requests)
        run = CPAllocator(optimize=False).start(
            scenario.infrastructure, scenario.requests
        )
        steps = 0
        while run.step():
            steps += 1
        stepwise = run.finish()
        assert steps == len(scenario.requests) - 1  # one request per unit
        _assert_outcomes_equal(batch, stepwise)

    def test_greedy_single_step(self):
        scenario = _scenario()
        batch = RoundRobinAllocator().allocate(
            scenario.infrastructure, scenario.requests
        )
        run = RoundRobinAllocator().start(
            scenario.infrastructure, scenario.requests
        )
        assert run.step() is False  # whole solve is one work unit
        _assert_outcomes_equal(batch, run.finish())

    def test_best_front_defaults_to_one_point(self):
        scenario = _scenario()
        run = RoundRobinAllocator().start(
            scenario.infrastructure, scenario.requests
        )
        run.step()
        front = run.best_front()
        assert front.ndim == 2 and front.shape[0] == 1

    def test_tabu_run_equals_blocking_run(self):
        scenario = _scenario()
        merged, _ = Request.concatenate(scenario.requests)
        compiled = CompiledProblem.compile(scenario.infrastructure, merged)
        initial = np.arange(merged.n, dtype=np.int64) % scenario.infrastructure.m

        def search():
            evaluator = compiled.evaluator(include_assignment_constraint=True)
            return TabuSearch(evaluator, max_iterations=60, seed=9)

        blocking = search().run(initial)
        run = search().start(initial)
        while run.step(7):  # odd slice size: boundaries must not matter
            pass
        stepwise = run.result()
        assert blocking.assignment.tobytes() == stepwise.assignment.tobytes()
        assert (
            np.asarray(blocking.objectives).tobytes()
            == np.asarray(stepwise.objectives).tobytes()
        )
        assert blocking.iterations == stepwise.iterations
        assert blocking.evaluations == stepwise.evaluations


class TestIncumbentPool:
    def test_rejects_unplaced_and_violating(self):
        pool = IncumbentPool()
        genomes = np.array([[0, UNPLACED], [1, 1], [0, 1]])
        objectives = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        violations = np.array([0, 2, 0])
        entered = pool.offer(genomes, objectives, violations=violations)
        assert entered == 1  # only the placed, violation-free row
        assert len(pool) == 1
        assert pool.front()[0].tolist() == [[0, 1]]

    def test_dominated_offers_refused(self):
        pool = IncumbentPool()
        assert pool.offer(np.array([0, 0]), np.array([1.0, 1.0])) == 1
        assert pool.offer(np.array([1, 1]), np.array([2.0, 2.0])) == 0
        assert pool.offer(np.array([2, 2]), np.array([0.5, 2.0])) == 1
        assert len(pool) == 2
        assert pool.offers == 3 and pool.accepted == 2

    def test_state_dict_round_trip(self):
        pool = IncumbentPool(capacity=8)
        pool.offer(np.array([[0, 1], [2, 3]]), np.array([[1.0, 2.0], [2.0, 1.0]]))
        clone = IncumbentPool()
        clone.load_state_dict(pool.state_dict())
        assert clone.front()[0].tolist() == pool.front()[0].tolist()
        assert clone.front()[1].tolist() == pool.front()[1].tolist()
        assert clone.offers == pool.offers and clone.accepted == pool.accepted


class TestReferencePointCache:
    def test_matches_uncached_formula(self):
        objectives = np.array([[1.0, 5.0], [3.0, 2.0]])
        np.testing.assert_array_equal(
            reference_point(objectives, margin=2.0),
            objectives.max(axis=0) + 2.0,
        )

    def test_repeat_lookup_hits_cache(self):
        objectives = np.random.default_rng(4).random((16, 3))
        first = reference_point(objectives)
        hits_before = reference_point_cache_info().hits
        second = reference_point(objectives)
        assert second is first  # memoized object, not a recompute
        assert reference_point_cache_info().hits == hits_before + 1

    def test_cached_array_is_read_only(self):
        reference = reference_point(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            reference[0] = 0.0

    def test_empty_front_rejected(self):
        with pytest.raises(ValidationError):
            reference_point(np.empty((0, 3)))


class TestPortfolioAllocator:
    def test_member_spec_validation(self):
        assert parse_members("nsga3_tabu+cp") == ("nsga3_tabu", "cp")
        with pytest.raises(ValidationError):
            parse_members("nsga3_tabu+warp_drive")
        with pytest.raises(ValidationError):
            PortfolioAllocator(deadline_ms=-5)

    def test_deterministic_and_stepwise_parity(self):
        scenario = _scenario()

        def batch():
            allocator = PortfolioAllocator(config=_CONFIG)
            try:
                return allocator.allocate(
                    scenario.infrastructure, scenario.requests
                )
            finally:
                allocator.close()

        first = batch()
        second = batch()
        _assert_outcomes_equal(first, second)

        allocator = PortfolioAllocator(config=_CONFIG)
        try:
            run = allocator.start(scenario.infrastructure, scenario.requests)
            while run.step():
                pass
            stepwise = run.finish()
            assert run.epoch > 1
            assert stepwise.extra["pool_size"] >= 1
        finally:
            allocator.close()
        _assert_outcomes_equal(first, stepwise)

    def test_pooled_front_hypervolume_monotone(self):
        scenario = _scenario(tightness=0.7)
        allocator = PortfolioAllocator(config=_CONFIG)
        fronts = []
        try:
            run = allocator.start(scenario.infrastructure, scenario.requests)
            while run.step():
                if len(run.pool):
                    fronts.append(np.array(run.best_front(), copy=True))
            run.finish()
        finally:
            allocator.close()
        assert fronts, "pool never filled"
        reference = reference_point(np.vstack(fronts))
        series = [hypervolume(front, reference) for front in fronts]
        assert all(b >= a - 1e-9 for a, b in zip(series, series[1:]))

    def test_deadline_cuts_the_race_short(self):
        scenario = _scenario(servers=8, vms=16)
        config = NSGAConfig(
            population_size=16,
            max_evaluations=40_000,
            reference_point_divisions=4,
            seed=3,
        )
        allocator = PortfolioAllocator(config=config, deadline_ms=300.0)
        started = time.perf_counter()
        try:
            outcome = allocator.allocate(
                scenario.infrastructure, scenario.requests
            )
        finally:
            allocator.close()
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0  # nowhere near the 40k-evaluation budget
        assert outcome.assignment.shape == (sum(r.n for r in scenario.requests),)

    def test_energy_term_folds_into_provider_objective(self):
        scenario = _scenario()
        merged, _ = Request.concatenate(scenario.requests)
        compiled = CompiledProblem.compile(scenario.infrastructure, merged)
        assignment = np.arange(merged.n, dtype=np.int64) % scenario.infrastructure.m
        plain = compiled.evaluator().evaluate(assignment).as_array()
        weighted = (
            compiled.evaluator(energy_weight=0.5).evaluate(assignment).as_array()
        )
        energy = EnergyCost(scenario.infrastructure, merged.demand).batch(
            assignment[None, :]
        )[0]
        assert energy > 0.0
        assert weighted[0] == pytest.approx(plain[0] + 0.5 * energy)
        np.testing.assert_array_equal(weighted[1:], plain[1:])

    def test_close_releases_shared_engine(self):
        scenario = _scenario()
        config = NSGAConfig(
            population_size=12,
            max_evaluations=48,
            reference_point_divisions=4,
            seed=3,
            n_workers=2,
        )
        allocator = PortfolioAllocator(config=config, members="nsga3_tabu+cp")
        try:
            allocator.allocate(scenario.infrastructure, scenario.requests)
            engine = allocator.execution_engine
            assert engine is not None
            # Every EA member rides the one portfolio-level pool.
            ea_members = [
                member
                for member in allocator._member_allocators
                if getattr(member, "execution_engine", None) is not None
            ]
            assert ea_members
            assert all(m.execution_engine is engine for m in ea_members)
        finally:
            allocator.close()
        assert engine._closed
        # Leak check: no worker processes survive the close.
        deadline = time.time() + 10.0
        while multiprocessing.active_children() and time.time() < deadline:
            time.sleep(0.05)
        assert not multiprocessing.active_children()

    def test_scheduler_close_propagates_to_allocator(self):
        from repro.scheduler.window import TimeWindowScheduler

        scenario = _scenario()
        config = NSGAConfig(
            population_size=12,
            max_evaluations=48,
            reference_point_divisions=4,
            seed=3,
            n_workers=1,
        )
        allocator = PortfolioAllocator(config=config, members="nsga3_tabu")
        scheduler = TimeWindowScheduler(
            infrastructure=scenario.infrastructure, allocator=allocator
        )
        for index, request in enumerate(scenario.requests):
            scheduler.submit(f"vm-{index}", request)
        scheduler.run_window()
        engine = allocator.execution_engine
        assert engine is not None
        scheduler.close()
        assert engine._closed  # the PR 6 leak: scheduler never closed it


class TestPortfolioCheckpoint:
    def test_shutdown_snapshot_resumes_byte_identically(self, tmp_path):
        scenario = _scenario(servers=6, vms=12, tightness=0.75)

        def build(directory):
            import dataclasses

            config = dataclasses.replace(
                _CONFIG, checkpoint_dir=directory, checkpoint_every=2
            )
            return PortfolioAllocator(config=config)

        # Uninterrupted baseline (no checkpointing).
        allocator = PortfolioAllocator(config=_CONFIG)
        try:
            baseline = allocator.allocate(
                scenario.infrastructure, scenario.requests
            )
        finally:
            allocator.close()

        # "SIGINT" mid-race: the shutdown flag is what the signal
        # bridge raises; the race must flush a composite snapshot at
        # the epoch boundary it stands on.
        directory = str(tmp_path / "ckpt")
        allocator = build(directory)
        try:
            run = allocator.start(scenario.infrastructure, scenario.requests)
            for _ in range(3):
                assert run.step()
            request_shutdown()
            assert run.step() is False
            assert run.interrupted
            interrupted_epoch = run.epoch
            outcome = run.finish()
            assert outcome.extra["interrupted"]
        finally:
            clear_shutdown()
            allocator.close()

        # Resume: a fresh race over the same problem + config picks the
        # snapshot up and finishes exactly as the uninterrupted run.
        allocator = build(directory)
        try:
            run = allocator.start(scenario.infrastructure, scenario.requests)
            assert run.epoch == interrupted_epoch
            while run.step():
                pass
            resumed = run.finish()
        finally:
            allocator.close()
        _assert_outcomes_equal(baseline, resumed)

    def test_checkpoint_ignored_across_configs(self, tmp_path):
        """A snapshot from a different member spec must not be loaded."""
        import dataclasses

        scenario = _scenario()
        config = dataclasses.replace(_CONFIG, checkpoint_dir=str(tmp_path))
        allocator = PortfolioAllocator(config=config, members="nsga3_tabu+cp")
        try:
            run = allocator.start(scenario.infrastructure, scenario.requests)
            assert run.step()
            request_shutdown()
            run.step()
        finally:
            clear_shutdown()
            allocator.close()

        other = PortfolioAllocator(config=config, members="nsga3_tabu+tabu")
        try:
            run = other.start(scenario.infrastructure, scenario.requests)
            assert run.epoch == 0  # different config_key, fresh race
        finally:
            other.close()


class TestReoptimizerWiring:
    def test_reoptimizer_defaults_to_portfolio(self):
        from repro.service.reoptimizer import DEFAULT_MEMBERS, Reoptimizer
        from repro.service.state import ServiceState

        scenario = _scenario()
        state = ServiceState(scenario.infrastructure, seed=3)
        reopt = Reoptimizer(state)
        assert reopt.members == DEFAULT_MEMBERS
        assert reopt.deadline_ms is None
