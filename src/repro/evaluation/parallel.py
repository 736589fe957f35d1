"""Process-parallel experiment execution.

The paper averages over 100 runs × many sizes × six algorithms — an
embarrassingly parallel grid.  :class:`ParallelExperimentRunner` is the
drop-in parallel sibling of
:class:`~repro.evaluation.runner.ExperimentRunner`: identical scenario
streams and record contents (asserted by the test suite), with the
(algorithm, scenario) cells fanned out over a process pool.

Pickling constraint: worker processes receive the allocator *factory*,
so factories must be picklable — allocator classes themselves or
``functools.partial(Class, config)`` both work; lambdas and closures do
not (use the serial runner for those).  Scenario objects travel as
NumPy-backed dataclasses, which pickle efficiently.

Scaling notes (per the optimization guides): work is fanned out at
cell granularity so a slow algorithm does not serialize the grid;
results stream back via ``as_completed`` and are re-ordered
deterministically afterwards, so wall-clock order never leaks into the
record list.
"""

from __future__ import annotations

import os
import pickle
from typing import Sequence

from repro.allocator import Allocator
from repro.engine import ProblemCache
from repro.errors import ValidationError
from repro.evaluation.metrics import RunRecord
from repro.evaluation.runner import AllocatorFactory, SweepResult
from repro.telemetry import MetricsRegistry, MetricsSnapshot, use_registry
from repro.workloads.generator import Scenario, ScenarioGenerator, ScenarioSpec

__all__ = ["ParallelExperimentRunner"]


#: Per-worker compilation cache, installed by the pool initializer.
#: Workers are reused across cells, so when several factories (or
#: repeated runs) hit the same (infrastructure, request) instance the
#: later cells reuse the earlier compilation instead of recompiling —
#: visible as ``engine.cache.hits`` in each cell's merged snapshot.
_WORKER_CACHE: ProblemCache | None = None


def _init_worker(cache_size: int) -> None:
    """Pool initializer: build the worker's shared compilation cache."""
    global _WORKER_CACHE
    _WORKER_CACHE = ProblemCache(maxsize=cache_size)


def _execute_cell(
    label: str,
    factory: AllocatorFactory,
    scenario: Scenario,
    servers: int,
    vms: int,
    run_index: int,
) -> tuple[RunRecord, MetricsSnapshot]:
    """One (algorithm, scenario) cell — runs inside a worker process.

    The cell executes against a fresh scoped registry (workers are
    reused across cells, so per-cell isolation matters) and ships its
    metrics back as a snapshot for the parent to merge.
    """
    with use_registry(MetricsRegistry()) as registry:
        allocator: Allocator = factory()
        if _WORKER_CACHE is not None and allocator.problem_cache is None:
            allocator.problem_cache = _WORKER_CACHE
        outcome = allocator.allocate(scenario.infrastructure, scenario.requests)
        registry.count("evaluation.cells", algorithm=label)
        registry.observe(
            "evaluation.cell_seconds", outcome.elapsed, algorithm=label
        )
        record = RunRecord.from_outcome(
            outcome, servers=servers, vms=vms, seed=run_index
        )
    record = RunRecord(**{**record.__dict__, "algorithm": label})
    return record, registry.snapshot()


class ParallelExperimentRunner:
    """Grid execution over a process pool.

    Parameters
    ----------
    factories:
        label → picklable zero-argument allocator factory.
    runs:
        Scenario repetitions per sweep point.
    seed:
        Root seed; the scenario stream is identical to the serial
        runner's for the same seed.
    n_workers:
        Pool size; defaults to ``os.cpu_count() - 1`` (min 1).
    problem_cache_size:
        Capacity of each worker's :class:`~repro.engine.ProblemCache`.
        Repeated (factory × scenario) cells on one instance then reuse
        compilations inside a worker; hits surface in the sweep's
        merged telemetry as ``engine.cache.hits``.
    """

    def __init__(
        self,
        factories: dict[str, AllocatorFactory],
        runs: int = 5,
        seed: int = 0,
        n_workers: int | None = None,
        problem_cache_size: int = 32,
    ) -> None:
        if not factories:
            raise ValidationError("need at least one allocator factory")
        if runs < 1:
            raise ValidationError(f"runs must be >= 1, got {runs}")
        if n_workers is not None and n_workers < 1:
            raise ValidationError(f"n_workers must be >= 1, got {n_workers}")
        if problem_cache_size < 1:
            raise ValidationError(
                f"problem_cache_size must be >= 1, got {problem_cache_size}"
            )
        # Fail fast on unpicklable factories (lambdas, closures): a
        # PicklingError mid-grid kills the pool with an opaque
        # traceback, so name the offending label up front instead.
        for label, factory in factories.items():
            try:
                pickle.dumps(factory)
            except Exception as exc:
                raise ValidationError(
                    f"allocator factory {label!r} is not picklable and cannot "
                    f"be shipped to worker processes ({exc}); use a class or "
                    "functools.partial instead of a lambda/closure, or use "
                    "the serial ExperimentRunner"
                ) from exc
        self.factories = dict(factories)
        self.runs = int(runs)
        self.seed = int(seed)
        self.n_workers = n_workers or max(1, (os.cpu_count() or 2) - 1)
        self.problem_cache_size = int(problem_cache_size)

    # Scenario derivation matches ExperimentRunner exactly, so serial
    # and parallel runs of the same seed see identical instances.
    def _scenarios_for(self, spec: ScenarioSpec, point_index: int) -> list[Scenario]:
        generator = ScenarioGenerator(spec, seed=self.seed + 7919 * point_index)
        return generator.generate_many(self.runs)

    def run_sweep(self, specs: Sequence[ScenarioSpec]) -> SweepResult:
        """Execute the grid in parallel; record order matches the
        serial runner (sweep point, run, factory insertion order)."""
        # Imported here, where the pool is built: importing the harness
        # does not load the process-pool machinery.
        from concurrent.futures import ProcessPoolExecutor, as_completed

        cells = []
        for point_index, spec in enumerate(specs):
            for run_index, scenario in enumerate(
                self._scenarios_for(spec, point_index)
            ):
                for label, factory in self.factories.items():
                    cells.append(
                        (point_index, run_index, label, factory, scenario, spec)
                    )

        results: dict[tuple[int, int, str], RunRecord] = {}
        snapshots: list[MetricsSnapshot] = []
        with ProcessPoolExecutor(
            max_workers=self.n_workers,
            initializer=_init_worker,
            initargs=(self.problem_cache_size,),
        ) as pool:
            futures = {
                pool.submit(
                    _execute_cell,
                    label,
                    factory,
                    scenario,
                    spec.servers,
                    spec.vms,
                    run_index,
                ): (point_index, run_index, label)
                for point_index, run_index, label, factory, scenario, spec in cells
            }
            for future in as_completed(futures):
                record, snapshot = future.result()
                results[futures[future]] = record
                snapshots.append(snapshot)

        ordered = [
            results[(point_index, run_index, label)]
            for point_index, run_index, label, *_ in cells
        ]
        return SweepResult(
            records=ordered, telemetry=MetricsSnapshot.merge_all(snapshots)
        )
