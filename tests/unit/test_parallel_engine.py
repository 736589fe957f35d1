"""Unit tests for the intra-run parallel execution engine.

The engine's entire contract is "same bytes, less wall-clock": repair
fan-out must be byte-identical to the serial path for a given seed at
every worker count, and every failure mode must degrade to serial —
also byte-identically.  These tests drive the
real pool (fork workers) on deliberately tight instances so the repair
path actually runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ea.config import NSGAConfig
from repro.ea.nsga3 import NSGA3
from repro.ea.reference_points import das_dennis_points, niching_for
from repro.engine.compiled import CompiledProblem
from repro.engine.kernels import use_kernel
from repro.engine.parallel import ParallelEngine, attach_instance, publish_instance
from repro.errors import ValidationError
from repro.model.request import Request
from repro.tabu.repair import TabuRepair
from repro.telemetry import MetricsRegistry, use_registry
from repro.verify import check_parallel_determinism
from repro.workloads.generator import ScenarioGenerator, ScenarioSpec


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


def _repair_population(engine: ParallelEngine | None, seed: int = 3):
    """Run one population repair, serially or through the engine."""
    scenario, merged, compiled = _tight_instance()
    repairer = TabuRepair(
        scenario.infrastructure,
        merged,
        seed=seed,
        compiled=compiled,
        engine=engine,
    )
    population = _random_population(compiled, rows=10, seed=seed)
    return repairer(population)


class TestSharedMemoryRoundtrip:
    def test_publish_attach_preserves_instance(self):
        _, _, compiled = _tight_instance()
        shared = publish_instance(compiled)
        try:
            attached = attach_instance(shared.spec)
            assert attached.compiled.fingerprint == compiled.fingerprint
            np.testing.assert_array_equal(
                attached.compiled.request.demand, compiled.request.demand
            )
            np.testing.assert_array_equal(
                attached.compiled.infrastructure.capacity,
                compiled.infrastructure.capacity,
            )
            # Views are zero-copy and read-only: workers cannot corrupt
            # the published instance.
            assert not attached.compiled.request.demand.flags.writeable
            assert attached.compiled.request.groups == compiled.request.groups
        finally:
            shared.close()

    def test_attach_cache_counts_hits(self):
        _, _, compiled = _tight_instance(seed=11)
        shared = publish_instance(compiled)
        try:
            with use_registry(MetricsRegistry()) as registry:
                first = attach_instance(shared.spec)
                second = attach_instance(shared.spec)
                assert first is second
                snapshot = registry.snapshot()
                assert snapshot.counter_total("engine.parallel.attach.misses") == 1
                assert snapshot.counter_total("engine.parallel.attach.hits") == 1
        finally:
            shared.close()

    def test_close_is_idempotent(self):
        _, _, compiled = _tight_instance(seed=12)
        shared = publish_instance(compiled)
        shared.close()
        shared.close()  # second close must not raise


class TestRepairDeterminism:
    @pytest.mark.parametrize(
        "n_workers, kernel",
        [
            *(pytest.param(n, "numpy", id=str(n)) for n in (1, 2, 4)),
            *(pytest.param(n, "reference", id=f"{n}-reference") for n in (1, 2)),
        ],
    )
    def test_parallel_repair_matches_serial_bytes(self, n_workers, kernel):
        """Workers are forked on the numpy kernel before the parent
        switches, so a reference parent fans out to numpy workers; the
        kernels' conformance keeps the bytes equal to serial."""
        with ParallelEngine(n_workers) as engine:
            _repair_population(engine, seed=5)  # forks the workers
            with use_kernel(kernel):
                serial = _repair_population(None)
                parallel = _repair_population(engine)
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
        assert snapshot.counter_total("engine.parallel.publishes") == 1
        # Worker-side counters crossed the process boundary via the
        # snapshot merge: the repair work itself...
        assert snapshot.counter_total("tabu.repair.individuals") >= 1
        # ...and the per-worker attachment cache.
        assert snapshot.counter_total("engine.parallel.attach.misses") >= 1

    def test_fallback_on_publish_failure_is_serial_identical(self, monkeypatch):
        import repro.engine.parallel as parallel_mod

        serial = _repair_population(None)

        def boom(*args, **kwargs):
            raise OSError("no shared memory for you")

        monkeypatch.setattr(parallel_mod, "publish_instance", boom)
        with use_registry(MetricsRegistry()) as registry:
            with ParallelEngine(2) as engine:
                result = _repair_population(engine)
                assert not engine.available
            snapshot = registry.snapshot()
        assert serial.tobytes() == result.tobytes()
        assert snapshot.counter_total("engine.parallel.fallbacks") == 1

    def test_small_batches_stay_serial(self):
        """Below min_dispatch_rows the engine is never consulted, so a
        broken pool cannot hurt small windows."""
        scenario, merged, compiled = _tight_instance()
        with ParallelEngine(2, min_dispatch_rows=10_000) as engine:
            repairer = TabuRepair(
                scenario.infrastructure,
                merged,
                seed=3,
                compiled=compiled,
                engine=engine,
            )
            with use_registry(MetricsRegistry()) as registry:
                repairer(_random_population(compiled, rows=6, seed=3))
            assert registry.snapshot().counter_total("engine.parallel.batches") == 0


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
        import repro.engine.parallel as parallel_mod

        def boom(*args, **kwargs):
            raise OSError("no shared memory for you")

        monkeypatch.setattr(parallel_mod, "publish_instance", boom)
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
            ParallelEngine(1, tasks_per_worker=0)
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
