"""Unit tests for the intra-run parallel execution engine.

The engine's entire contract is "same bytes, less wall-clock": repair
fan-out must be byte-identical to the serial path for a given seed at
every worker count, and every failure mode must degrade to serial —
also byte-identically.  These tests drive the
real pool (fork workers) on deliberately tight instances so the repair
path actually runs.
"""

from __future__ import annotations

import concurrent.futures
import pickle

import numpy as np
import pytest

import repro.engine.parallel as parallel_mod
from repro.ea.config import NSGAConfig
from repro.ea.nsga3 import NSGA3
from repro.ea.reference_points import das_dennis_points, niching_for
from repro.engine.compiled import CompiledProblem
from repro.engine.kernels import use_kernel
from repro.engine.parallel import ParallelEngine
from repro.errors import ValidationError
from repro.hybrid.nsga_allocators import NSGA3TabuAllocator
from repro.market import ProviderMarket
from repro.model.request import Request
from repro.tabu.repair import TabuRepair
from repro.telemetry import MetricsRegistry, use_registry
from repro.verify import check_parallel_determinism
from repro.workloads.generator import ScenarioGenerator, ScenarioSpec
from repro.workloads.scenarios import compile_scenario


def _tight_instance(seed: int = 7, servers: int = 6, vms: int = 14):
    """A scenario tight enough that random genomes are infeasible."""
    spec = ScenarioSpec(servers=servers, datacenters=2, vms=vms, tightness=0.9)
    scenario = ScenarioGenerator(spec, seed=seed).generate()
    merged, _ = Request.concatenate(scenario.requests)
    return scenario, merged, CompiledProblem(scenario.infrastructure, merged)


def _random_population(compiled: CompiledProblem, rows: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    n_servers = compiled.infrastructure.m
    n_vms = compiled.request.n
    return rng.integers(0, n_servers, size=(rows, n_vms), dtype=np.int64)


def _repair_population(
    engine: ParallelEngine | None, seed: int = 3, precompiled: bool = True
):
    """Run one population repair, serially or through the engine."""
    scenario, merged, compiled = _tight_instance()
    repairer = TabuRepair(
        scenario.infrastructure,
        merged,
        seed=seed,
        compiled=compiled if precompiled else None,
        engine=engine,
    )
    population = _random_population(compiled, rows=10, seed=seed)
    return repairer(population)


def _fail_pool_start(*args, **kwargs):
    raise OSError("no worker processes for you")


class TestWorkerRepairers:
    """The worker side, driven in-process: a task carries a key and the
    pickled parent repairer; the worker keeps a bounded cache of
    repairers by key."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self, monkeypatch):
        monkeypatch.setattr(parallel_mod, "_REPAIRERS", {})

    def test_cache_is_bounded_and_keeps_recent_keys(self):
        scenario, merged, compiled = _tight_instance()
        parent = TabuRepair(scenario.infrastructure, merged, seed=3, compiled=compiled)
        payload = pickle.dumps(parent)
        genomes = _random_population(compiled, rows=2, seed=3)
        rows = np.arange(2)
        bound = parallel_mod.REPAIRER_CACHE_SIZE
        outputs = set()
        for key in range(3 * bound):
            repaired, _, _ = parallel_mod._repair_task(
                key, payload, genomes, rows, np.random.SeedSequence(3), 0
            )
            outputs.add(repaired.tobytes())
            assert len(parallel_mod._REPAIRERS) <= bound
        # A rebuilt repairer repairs exactly like the one it replaced.
        assert len(outputs) == 1
        assert list(parallel_mod._REPAIRERS) == list(range(2 * bound, 3 * bound))
        # A hit reuses the repairer and makes its key the most recent.
        oldest = 2 * bound
        cached = parallel_mod._REPAIRERS[oldest]
        assert parallel_mod._repairer(oldest, payload) is cached
        parallel_mod._repairer(3 * bound, payload)
        assert oldest in parallel_mod._REPAIRERS
        assert 2 * bound + 1 not in parallel_mod._REPAIRERS

    def test_pickle_is_the_rebuild_recipe(self):
        """A pickled repairer carries its instance, committed usage and
        three settings — never its compilation, engine or counters — and
        unpickles to a fresh repairer over its own compilation."""
        scenario, merged, compiled = _tight_instance()
        base = np.full((scenario.infrastructure.m, 3), 0.5)
        with ParallelEngine(1) as engine:
            parent = TabuRepair(
                scenario.infrastructure, merged, base_usage=base, max_rounds=5,
                tenure=7, order="best_fit", seed=3, compiled=compiled, engine=engine,
            )
            parent.repair_genome(_random_population(compiled, rows=1, seed=3)[0])
            payload = pickle.dumps(parent)
        assert parent.moves_performed > 0
        assert b"CompiledProblem" not in payload and b"ParallelEngine" not in payload
        copy = pickle.loads(payload)
        assert (copy.max_rounds, copy.tenure, copy.order) == (5, 7, "best_fit")
        assert copy.base_usage.tobytes() == base.tobytes()
        assert copy.compiled is not compiled
        assert copy.compiled.fingerprint == compiled.fingerprint
        assert copy.engine is None
        assert (copy.moves_performed, copy.repaired_individuals) == (0, 0)

    def test_worker_repairer_is_the_parents_instance(self):
        """Every field of the instance crosses to the worker, provider
        tags included, so the rebuilt compilation has the parent's
        fingerprint."""
        spec = ScenarioSpec(servers=12, datacenters=2, vms=24, tightness=0.9)
        scenario = ScenarioGenerator(spec, seed=1).generate()
        estate = ProviderMarket.from_infrastructure(
            scenario.infrastructure, 3
        ).compile(at=0.0).infrastructure
        merged, _ = Request.concatenate(scenario.requests)
        compiled = CompiledProblem(estate, merged)
        parent = TabuRepair(estate, merged, seed=1, compiled=compiled)
        shipped = pickle.dumps(parent)
        genomes = _random_population(compiled, rows=2, seed=1)
        parallel_mod._repair_task(
            7, shipped, genomes, np.arange(2), np.random.SeedSequence(1), 0
        )
        worker = parallel_mod._REPAIRERS[7]
        assert worker.compiled.fingerprint == compiled.fingerprint
        assert estate.p == 3
        np.testing.assert_array_equal(
            worker.infrastructure.server_provider, estate.server_provider
        )


class TestRepairDeterminism:
    @pytest.mark.parametrize(
        "n_workers, kernel, precompiled",
        [
            *(pytest.param(n, "numpy", True, id=str(n)) for n in (1, 2, 4)),
            *(pytest.param(n, "reference", True, id=f"{n}-reference") for n in (1, 2)),
            pytest.param(2, "numpy", False, id="2-uncompiled"),
        ],
    )
    def test_parallel_repair_matches_serial_bytes(self, n_workers, kernel, precompiled):
        """Workers are forked on the numpy kernel before the parent
        switches, so a reference parent fans out to numpy workers; the
        kernels' conformance keeps the bytes equal to serial.  Workers
        always compile the instance, also for a parent repairer built
        without a compilation."""
        with ParallelEngine(n_workers) as engine:
            _repair_population(engine, seed=5)  # forks the workers
            with use_kernel(kernel):
                serial = _repair_population(None, precompiled=precompiled)
                parallel = _repair_population(engine, precompiled=precompiled)
            assert engine.available  # no silent fallback happened
        assert serial.tobytes() == parallel.tobytes()

    def test_repair_rng_independent_of_repairer_stream(self):
        """Population repair must not consume the repairer's own RNG —
        otherwise post-process ``repair_genome`` calls would see a
        different stream depending on how batches were dispatched."""
        scenario, merged, compiled = _tight_instance()
        a = TabuRepair(scenario.infrastructure, merged, seed=5, compiled=compiled)
        b = TabuRepair(scenario.infrastructure, merged, seed=5, compiled=compiled)
        population = _random_population(compiled, rows=6, seed=1)
        a(population)  # consume a batch on one repairer only
        genome = _random_population(compiled, rows=1, seed=2)[0]
        np.testing.assert_array_equal(
            a.repair_genome(genome), b.repair_genome(genome)
        )

    def test_telemetry_merged_from_workers(self):
        with use_registry(MetricsRegistry()) as registry:
            with ParallelEngine(2) as engine:
                _repair_population(engine)
            snapshot = registry.snapshot()
        assert snapshot.counter_total("engine.parallel.batches") >= 1
        assert snapshot.counter_total("engine.parallel.tasks") >= 1
        # Worker-side counters crossed the process boundary via the
        # snapshot merge.
        assert snapshot.counter_total("tabu.repair.individuals") >= 1

    def test_fallback_on_publish_failure_is_serial_identical(self, monkeypatch):
        """An instance that cannot be shipped to the workers fails the
        dispatch; the batch is then repaired serially, to the same bytes."""
        serial = _repair_population(None)
        # A lambda does not pickle, so no task reaches a worker.
        monkeypatch.setattr(TabuRepair, "__reduce__", lambda repairer: (lambda: None, ()))
        with use_registry(MetricsRegistry()) as registry:
            with ParallelEngine(2) as engine:
                result = _repair_population(engine)
                assert not engine.available
            snapshot = registry.snapshot()
        assert serial.tobytes() == result.tobytes()
        assert snapshot.counter_total("engine.parallel.fallbacks") == 1

    def test_small_batches_stay_serial(self):
        """A batch with fewer than MIN_DISPATCH_ROWS infeasible rows
        never starts the pool, so a broken pool cannot hurt small
        windows."""
        scenario, merged, compiled = _tight_instance()
        with ParallelEngine(2) as engine:
            repairer = TabuRepair(
                scenario.infrastructure,
                merged,
                seed=3,
                compiled=compiled,
                engine=engine,
            )
            with use_registry(MetricsRegistry()) as registry:
                repairer(_random_population(compiled, rows=1, seed=3))
            snapshot = registry.snapshot()
            assert snapshot.counter_total("tabu.repair.individuals") == 1
            assert snapshot.counter_total("engine.parallel.batches") == 0
            assert engine._pool is None


class TestSchedulerWindows:
    def test_replay_matches_serial_across_windows(self):
        """Every window builds a new repairer over a new committed
        usage; the workers must follow it from window to window."""
        scenario = compile_scenario("failure_storm", seed=1)
        config = NSGAConfig(population_size=20, max_evaluations=200, seed=1)

        serial = NSGA3TabuAllocator(config)
        try:
            expected = scenario.run(serial).ledger_fingerprint
        finally:
            serial.close()

        pooled = NSGA3TabuAllocator(config.with_(n_workers=2))
        with use_registry(MetricsRegistry()) as registry:
            try:
                result = scenario.run(pooled)
                available = pooled.execution_engine.available
            finally:
                pooled.close()
        assert result.ledger_fingerprint == expected
        assert registry.snapshot().counter_total("engine.parallel.batches") > 0
        assert available


class TestVerifyCheck:
    def test_check_parallel_determinism_passes(self):
        report = check_parallel_determinism(
            (1, 2), seed=1, servers=6, vms=10, max_evaluations=60
        )
        assert report.ok, report.format()
        assert report.comparisons == 10  # 3 engine + 2 allocator per count

    def test_check_parallel_fails_when_the_pool_falls_back(self, monkeypatch):
        """Both sides of a fallen-back comparison ran serial, so equal
        bytes prove nothing: each layer's fallback is a mismatch."""
        # The engine imports the pool class where it builds the pool.
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _fail_pool_start
        )
        report = check_parallel_determinism(
            (1,), seed=1, servers=6, vms=10, max_evaluations=60
        )
        assert not report.ok
        assert {(m.where, m.field) for m in report.mismatches} == {
            ("engine n_workers=1", "engine.available"),
            ("allocator n_workers=1", "engine.available"),
        }

    def test_validation(self):
        with pytest.raises(ValidationError):
            ParallelEngine(0)
        with pytest.raises(ValidationError):
            NSGAConfig(n_workers=-1)


class TestReferencePointCache:
    def test_lattice_memoized_and_read_only(self):
        a = das_dennis_points(3, 12)
        b = das_dennis_points(3, 12)
        assert a is b
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 99.0

    def test_niching_shared_across_algorithm_instances(self):
        config = NSGAConfig(population_size=8, max_evaluations=32)
        first = NSGA3(config=config)
        second = NSGA3(config=config)
        assert first.niching is second.niching
        assert first.niching is niching_for(3, config.reference_point_divisions)

    def test_validation_still_enforced(self):
        with pytest.raises(ValidationError):
            das_dennis_points(1, 4)
        with pytest.raises(ValidationError):
            das_dennis_points(3, 0)
