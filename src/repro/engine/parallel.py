"""repro.engine.parallel — the intra-run parallel execution engine.

Figures 7-8 rank algorithms by execution time at scale, and the
dominant cost inside the hybrid is the tabu repair of infeasible
individuals: every genome is repaired independently.  This module fans
that work out over a persistent pool of worker processes without
changing a single byte of the result:

* :meth:`ParallelEngine.repair_rows` takes the parent's repairer and
  one batch's infeasible rows, and cuts the rows into contiguous
  tasks.  Each task carries a key and the pickled repairer, which
  pickles as its own recipe (the instance, the committed usage and
  the repair settings), so the repairer is the only code that knows
  how to rebuild itself.
* :func:`_repair_task` runs in a worker.  The worker keeps its last
  :data:`REPAIRER_CACHE_SIZE` repairers by key, unpickles one only on
  a miss, and calls the same ``repair_rows`` the serial path calls.

Every failure (the pool will not start, a dispatch breaks) marks the
engine unavailable, counts an ``engine.parallel.fallbacks`` and returns
``None`` so the caller repairs serially — which produces the *same*
bytes, because per-individual repair RNG streams are derived from
spawn keys, not from worker count or completion order (the determinism
contract; see ``docs/PARALLEL.md``).

Telemetry lands in the ``engine.parallel.*`` namespace; worker-side
counters (``tabu.repair.*``) are recorded into a scoped registry per
task and merged back into the parent's registry with the results.
"""

from __future__ import annotations

import itertools
import pickle
import weakref
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import ValidationError
from repro.telemetry import MetricsRegistry, get_registry, use_registry
from repro.types import IntArray
from repro.utils.timers import Stopwatch

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = ["ParallelEngine"]

#: Tasks per worker in one dispatch, so a straggler cannot idle the
#: rest of the pool.
TASKS_PER_WORKER = 2
#: Floor on rows per task: pickling and the pool round-trip amortize
#: over real work (one task when the whole batch is smaller).
MIN_CHUNK_ROWS = 8
#: Below this many infeasible rows a batch stays serial.
MIN_DISPATCH_ROWS = 2
#: Repairers one worker keeps.  Two portfolio lanes can alternate on
#: one engine; an evicted repairer costs one rebuild.
REPAIRER_CACHE_SIZE = 4
#: Repairer keys, unique within the parent process.
_KEYS = itertools.count()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: This worker's repairers by key, least recently used first.
_REPAIRERS: dict[int, Any] = {}


def _repairer(key: int, payload: bytes):
    """The worker's repairer for ``key``, unpickled from ``payload`` on
    a miss."""
    repairer = _REPAIRERS.pop(key, None)
    if repairer is None:
        repairer = pickle.loads(payload)
        if len(_REPAIRERS) >= REPAIRER_CACHE_SIZE:
            del _REPAIRERS[next(iter(_REPAIRERS))]
    _REPAIRERS[key] = repairer
    return repairer


def _repair_task(
    key: int,
    payload: bytes,
    genomes: IntArray,
    rows: IntArray,
    root: np.random.SeedSequence,
    batch_index: int,
):
    """Repair a batch of infeasible genomes inside a worker process.

    Returns the repaired rows, the task's metric snapshot (merged into
    the parent registry) and the busy seconds spent (utilization)."""
    stopwatch = Stopwatch().start()
    with use_registry(MetricsRegistry()) as registry:
        repaired = _repairer(key, payload).repair_rows(
            genomes, rows, root=root, batch_index=batch_index
        )
        snapshot = registry.snapshot()
    stopwatch.stop()
    return repaired, snapshot, stopwatch.elapsed


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class ParallelEngine:
    """Persistent worker-pool executor for intra-run parallelism.

    Parameters
    ----------
    n_workers:
        Worker processes.  ``1`` is legal (useful for exercising the
        cross-process path deterministically); serial callers simply
        don't construct an engine.

    Lifecycle: the pool starts lazily on first dispatch and survives
    across generations, windows and allocate calls until :meth:`close`
    — that persistence is the point.  Every failure path (pool won't
    start, broken pool mid-run) marks the engine unavailable, counts
    ``engine.parallel.fallbacks`` and makes every later dispatch return
    ``None`` so callers degrade to serial.
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValidationError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self._pool: ProcessPoolExecutor | None = None
        self._broken = False
        self._closed = False
        #: Each repairer handed in -> (its key, its pickle).
        #: Weak, so no finished window's repairer outlives its window.
        self._recipes: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        get_registry().gauge("engine.parallel.workers", self.n_workers)

    # ------------------------------------------------------------------
    @property
    def available(self) -> bool:
        """Whether dispatches can still be attempted."""
        return not (self._broken or self._closed)

    def _fallback(self, reason: str) -> None:
        self._broken = True
        get_registry().count("engine.parallel.fallbacks", reason=reason)

    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        if not self.available:
            return None
        if self._pool is None:
            # Imported here, where the pool is built: a serial run never
            # loads the process-pool machinery.
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import get_all_start_methods, get_context

            try:
                # ``fork`` where the platform has it: cheap worker start-up.
                context = (
                    get_context("fork") if "fork" in get_all_start_methods() else None
                )
                self._pool = ProcessPoolExecutor(
                    max_workers=self.n_workers, mp_context=context
                )
            except Exception:
                self._fallback("pool_start")
                return None
        return self._pool

    def _chunks(self, count: int) -> list[np.ndarray]:
        n_tasks = min(count, self.n_workers * TASKS_PER_WORKER)
        # Fewer, larger chunks: never cut below MIN_CHUNK_ROWS per task
        # (one task total when the whole dispatch is smaller than that).
        n_tasks = min(n_tasks, max(1, count // MIN_CHUNK_ROWS))
        return np.array_split(np.arange(count), n_tasks)

    def repair_rows(
        self,
        repairer,
        genomes: IntArray,
        rows: IntArray,
        *,
        root: np.random.SeedSequence,
        batch_index: int,
    ) -> IntArray | None:
        """Fan one batch's infeasible rows out over the pool.

        ``repairer`` is picklable and has the serial path's
        ``repair_rows(genomes, rows, root=, batch_index=)``.
        ``genomes`` holds the infeasible genomes (one per entry of
        ``rows``, which carries their population indices — the
        coordinate the per-individual RNG stream is derived from).
        Each repairer object gets its own key, so a new window (a new
        repairer) never reads a stale instance.  Returns the repaired
        genomes in the same order, or ``None`` when the batch stays
        serial: fewer than :data:`MIN_DISPATCH_ROWS` rows, or any pool
        failure.  The caller's serial path derives the same per-row
        streams, so it produces identical bytes."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size < MIN_DISPATCH_ROWS:
            return None
        pool = self._ensure_pool()
        if pool is None:
            return None
        genomes = np.ascontiguousarray(genomes, dtype=np.int64)
        registry = get_registry()
        chunks = self._chunks(rows.size)
        stopwatch = Stopwatch().start()
        try:
            # Pickled once per repairer: each task then copies bytes, and
            # only a worker that misses the key unpickles them.
            recipe = self._recipes.get(repairer)
            if recipe is None:
                recipe = (next(_KEYS), pickle.dumps(repairer))
                self._recipes[repairer] = recipe
            key, payload = recipe
            futures = [
                pool.submit(
                    _repair_task, key, payload, genomes[chunk], rows[chunk], root, batch_index
                )
                for chunk in chunks
            ]
            parts: list[np.ndarray] = []
            busy = 0.0
            # Futures are consumed in submission order, so the merged
            # result is deterministic regardless of completion order.
            for future in futures:
                repaired, snapshot, elapsed = future.result()
                parts.append(repaired)
                registry.merge(snapshot)
                registry.observe("engine.parallel.task_seconds", elapsed)
                busy += elapsed
        except Exception:
            self._fallback("dispatch")
            return None
        stopwatch.stop()
        registry.count("engine.parallel.batches")
        registry.count("engine.parallel.tasks", len(chunks))
        registry.count("engine.parallel.rows", rows.size)
        registry.observe("engine.parallel.batch_rows", rows.size)
        registry.observe("engine.parallel.chunk_rows", rows.size / len(chunks))
        if stopwatch.elapsed > 0:
            registry.gauge(
                "engine.parallel.worker_utilization",
                min(1.0, busy / (stopwatch.elapsed * self.n_workers)),
            )
        return np.concatenate(parts, axis=0)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else ("broken" if self._broken else "ok")
        return f"ParallelEngine(n_workers={self.n_workers}, state={state})"
