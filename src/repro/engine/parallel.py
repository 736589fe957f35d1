"""repro.engine.parallel — the intra-run parallel execution engine.

Figures 7-8 rank algorithms by execution time at scale, and the
dominant cost inside the hybrid is the tabu repair of infeasible
individuals: every genome is repaired independently, yet the loop in
:meth:`~repro.ea.constraint_handling.RepairHandling.prepare` used to
run strictly serially.  This module fans that work out over a
persistent pool of worker processes without changing a single byte of
the result:

* :func:`publish_instance` copies a :class:`CompiledProblem`'s
  demand/capacity/cost arrays into **one**
  :class:`multiprocessing.shared_memory.SharedMemory` segment, keyed by
  the compilation's blake2b fingerprint.  Workers attach by name and
  rebuild the instance from zero-copy views, so a repair task ships
  only the genomes it repairs — the instance itself crosses the
  process boundary once per worker, not once per task.
* :class:`ParallelEngine` owns the pool and the published segments.
  :meth:`ParallelEngine.repair_rows` dispatches the infeasible slice of
  a generation in contiguous batches (amortizing task overhead).  It
  degrades gracefully: any pool or shared-memory failure marks the
  engine unavailable, counts an ``engine.parallel.fallbacks`` and
  returns ``None`` so the caller falls back to the serial path — which
  produces the *same* bytes, because per-individual repair RNG streams
  are derived from spawn keys, not from worker count or completion
  order (the determinism contract; see ``docs/PARALLEL.md``).

Telemetry lands in the ``engine.parallel.*`` namespace; worker-side
counters (attach hits, ``tabu.repair.*``) are recorded into a scoped
registry per task and merged back into the parent's registry with the
results.
"""

from __future__ import annotations

import itertools
import os
import secrets
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from repro.engine.compiled import CompiledProblem
from repro.errors import ValidationError
from repro.telemetry import MetricsRegistry, get_registry, use_registry
from repro.types import FloatArray, IntArray, PlacementRule
from repro.utils.timers import Stopwatch

__all__ = [
    "InstanceSpec",
    "SharedInstance",
    "publish_instance",
    "attach_instance",
    "RepairParams",
    "ParallelEngine",
]


# ----------------------------------------------------------------------
# Shared-memory publication
# ----------------------------------------------------------------------

#: Arrays that rebuild the Infrastructure (name -> attribute).
_INFRA_FIELDS = (
    "capacity",
    "capacity_factor",
    "operating_cost",
    "usage_cost",
    "max_load",
    "max_qos",
    "server_datacenter",
)

#: Arrays that rebuild the Request.
_REQUEST_FIELDS = ("demand", "qos_guarantee", "downtime_cost", "migration_cost")


@dataclass(frozen=True)
class InstanceSpec:
    """Picklable recipe for attaching one published instance.

    Everything here is small: segment name, array layout (offsets,
    shapes, dtypes), the group structure and the schema.  The heavy
    arrays live in the shared-memory segment the spec points at.
    """

    segment: str
    fingerprint: str
    layout: tuple[tuple[str, int, tuple[int, ...], str], ...]
    group_rules: tuple[str, ...]
    group_members: tuple[tuple[int, ...], ...]
    schema_names: tuple[str, ...]
    schema_units: tuple[str, ...]


class SharedInstance:
    """Parent-side handle on one published instance segment."""

    def __init__(self, spec: InstanceSpec, shm: shared_memory.SharedMemory) -> None:
        self.spec = spec
        self._shm = shm
        self._closed = False

    @property
    def segment(self) -> str:
        """Name of the shared-memory segment workers attach by."""
        return self.spec.segment

    def close(self) -> None:
        """Close and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except OSError:  # pragma: no cover - platform dependent
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __del__(self) -> None:  # pragma: no cover - GC timing
        self.close()


_SEGMENT_COUNTER = itertools.count()


def _collect_arrays(
    compiled: CompiledProblem, base_usage: FloatArray | None
) -> dict[str, np.ndarray]:
    infra, request = compiled.infrastructure, compiled.request
    arrays: dict[str, np.ndarray] = {}
    for name in _INFRA_FIELDS:
        arrays[name] = np.ascontiguousarray(getattr(infra, name))
    for name in _REQUEST_FIELDS:
        arrays[name] = np.ascontiguousarray(getattr(request, name))
    if base_usage is not None:
        arrays["base_usage"] = np.ascontiguousarray(base_usage, dtype=np.float64)
    return arrays


def publish_instance(
    compiled: CompiledProblem, base_usage: FloatArray | None = None
) -> SharedInstance:
    """Copy one instance into a fresh shared-memory segment.

    The segment name embeds the instance fingerprint (the same blake2b
    key :class:`~repro.engine.cache.ProblemCache` uses) plus the pid
    and a counter, so concurrent engines never collide.
    """
    arrays = _collect_arrays(compiled, base_usage)
    layout: list[tuple[str, int, tuple[int, ...], str]] = []
    offset = 0
    for name, array in arrays.items():
        layout.append((name, offset, array.shape, array.dtype.str))
        offset += array.nbytes
    # POSIX shm names are limited (~250 chars); this stays well under.
    segment = (
        f"repro_{compiled.fingerprint[:16]}_{os.getpid()}"
        f"_{next(_SEGMENT_COUNTER)}_{secrets.token_hex(4)}"
    )
    shm = shared_memory.SharedMemory(name=segment, create=True, size=max(offset, 1))
    for (name, start, shape, dtype), array in zip(layout, arrays.values()):
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=start)
        view[...] = array
    request = compiled.request
    spec = InstanceSpec(
        segment=segment,
        fingerprint=compiled.fingerprint,
        layout=tuple(layout),
        group_rules=tuple(gr.rule.value for gr in request.groups),
        group_members=tuple(tuple(gr.members) for gr in request.groups),
        schema_names=tuple(request.schema.names),
        schema_units=tuple(request.schema.units),
    )
    get_registry().count("engine.parallel.publishes")
    return SharedInstance(spec, shm)


# ----------------------------------------------------------------------
# Worker side: attach, rebuild, cache
# ----------------------------------------------------------------------
class _AttachedInstance:
    """One worker's zero-copy view of a published instance."""

    def __init__(self, spec: InstanceSpec) -> None:
        from repro.model.attributes import AttributeSchema
        from repro.model.infrastructure import Infrastructure
        from repro.model.request import PlacementGroup, Request

        # NOTE on lifecycle: CPython < 3.13 registers even read-only
        # attachments with the resource tracker (bpo-39959).  Pool
        # workers *share* the parent's tracker daemon (its fd is
        # inherited under both fork and spawn) and the tracker's cache
        # is a set, so the attach-side registration dedupes against the
        # parent's create-side one and the segment is still unlinked
        # exactly once — by the parent's :meth:`SharedInstance.close`.
        # Do NOT "fix" this with resource_tracker.unregister() here:
        # that would delete the shared registration out from under the
        # parent.  See docs/PARALLEL.md.
        shm = shared_memory.SharedMemory(name=spec.segment)
        self._shm = shm
        views: dict[str, np.ndarray] = {}
        for name, offset, shape, dtype in spec.layout:
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset)
            view.flags.writeable = False
            views[name] = view

        schema = AttributeSchema(names=spec.schema_names, units=spec.schema_units)
        infrastructure = Infrastructure(
            **{name: views[name] for name in _INFRA_FIELDS}, schema=schema
        )
        groups = tuple(
            PlacementGroup(PlacementRule(rule), members)
            for rule, members in zip(spec.group_rules, spec.group_members)
        )
        request = Request(
            **{name: views[name] for name in _REQUEST_FIELDS},
            groups=groups,
            schema=schema,
        )
        self.compiled = CompiledProblem(infrastructure, request)
        self.base_usage = views.get("base_usage")
        self._repairers: dict[RepairParams, Any] = {}

    def repairer(self, params: "RepairParams"):
        """The worker-local :class:`TabuRepair` over the attached instance."""
        repairer = self._repairers.get(params)
        if repairer is None:
            from repro.tabu.repair import TabuRepair

            repairer = TabuRepair(
                self.compiled.infrastructure,
                self.compiled.request,
                base_usage=self.base_usage,
                max_rounds=params.max_rounds,
                tenure=params.tenure,
                order=params.order,
                allow_worsening_moves=params.allow_worsening_moves,
                compiled=self.compiled,
            )
            self._repairers[params] = repairer
        return repairer


#: Per-worker attachment cache: segment name -> attached instance.
_ATTACHED: dict[str, _AttachedInstance] = {}


class _AttachMiss(Exception):
    """A spec-ref dispatch named a segment this worker never attached.

    Picklable (plain string arg), so ``future.result()`` re-raises it
    in the parent, which resubmits the chunk with the full
    :class:`InstanceSpec` — the one-time cost the ref dispatch was
    skipping.  See :meth:`ParallelEngine.repair_rows`.
    """

    @property
    def segment(self) -> str:
        return self.args[0]


def attach_instance(spec: InstanceSpec | str) -> _AttachedInstance:
    """The worker-side cache lookup (exposed for in-process tests).

    ``spec`` may be a full :class:`InstanceSpec` or a bare segment name
    (a *spec-ref*): after the first batch over a segment, the parent
    ships only the name — a few dozen bytes instead of the group
    structure and layout tables — and the worker resolves it from its
    attachment cache.  A ref that misses (fresh worker, restarted pool)
    raises :class:`_AttachMiss` so the parent can retry with the spec.
    """
    registry = get_registry()
    if isinstance(spec, str):
        attached = _ATTACHED.get(spec)
        if attached is None:
            raise _AttachMiss(spec)
        registry.count("engine.parallel.specref.hits")
        registry.count("engine.parallel.attach.hits")
        return attached
    attached = _ATTACHED.get(spec.segment)
    if attached is not None:
        registry.count("engine.parallel.attach.hits")
        return attached
    registry.count("engine.parallel.attach.misses")
    attached = _AttachedInstance(spec)
    _ATTACHED[spec.segment] = attached
    return attached


@dataclass(frozen=True)
class RepairParams:
    """The tabu-repair knobs a worker needs to mirror the parent's
    :class:`~repro.tabu.repair.TabuRepair` exactly.

    Frozen, so the params themselves key the worker's repairer cache.
    """

    max_rounds: int = 4
    tenure: int = 64
    order: str = "first"
    allow_worsening_moves: bool = True


def _repair_task(
    spec: InstanceSpec | str,
    params: RepairParams,
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
        attached = attach_instance(spec)
        repairer = attached.repairer(params)
        repaired = repairer.repair_rows(
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
    tasks_per_worker:
        Batching granularity: one dispatch splits its rows into at most
        ``n_workers * tasks_per_worker`` tasks, so a straggler cannot
        idle the rest of the pool while tasks stay big enough to
        amortize dispatch overhead.
    min_chunk_rows:
        Floor on rows per task: a dispatch never cuts chunks smaller
        than this, preferring fewer, larger tasks when the row count is
        modest.  With the batched kernel tile a worker scores its whole
        chunk in one vectorized pass, so larger chunks amortize both
        the IPC round-trip *and* the tile setup.
    min_dispatch_rows:
        Below this many infeasible rows the caller should stay serial
        (dispatch overhead would dominate).
    start_method:
        ``multiprocessing`` start method; default prefers ``fork``
        (cheap workers) where available.

    Lifecycle: the pool starts lazily on first dispatch and survives
    across generations, windows and allocate calls until :meth:`close`
    — that persistence is the point.  Every failure path (pool won't
    start, shared memory unavailable, broken pool mid-run) marks the
    engine unavailable, counts ``engine.parallel.fallbacks`` and makes
    every later dispatch return ``None`` so callers degrade to serial.
    """

    def __init__(
        self,
        n_workers: int,
        *,
        tasks_per_worker: int = 2,
        min_chunk_rows: int = 8,
        min_dispatch_rows: int = 2,
        start_method: str | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValidationError(f"n_workers must be >= 1, got {n_workers}")
        if tasks_per_worker < 1:
            raise ValidationError(
                f"tasks_per_worker must be >= 1, got {tasks_per_worker}"
            )
        if min_chunk_rows < 1:
            raise ValidationError(
                f"min_chunk_rows must be >= 1, got {min_chunk_rows}"
            )
        self.n_workers = int(n_workers)
        self.tasks_per_worker = int(tasks_per_worker)
        self.min_chunk_rows = int(min_chunk_rows)
        self.min_dispatch_rows = int(min_dispatch_rows)
        if start_method is None:
            start_method = (
                "fork" if "fork" in get_all_start_methods() else None
            )
        self._start_method = start_method
        self._pool: ProcessPoolExecutor | None = None
        self._broken = False
        self._closed = False
        self._published: dict[tuple, SharedInstance] = {}
        #: Segments whose full spec completed at least one batch — later
        #: batches ship only the segment name (spec-ref dispatch).
        self._spec_sent: set[str] = set()
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
            try:
                context = (
                    get_context(self._start_method)
                    if self._start_method
                    else None
                )
                self._pool = ProcessPoolExecutor(
                    max_workers=self.n_workers, mp_context=context
                )
            except Exception:
                self._fallback("pool_start")
                return None
        return self._pool

    # ------------------------------------------------------------------
    def publish(
        self, compiled: CompiledProblem, base_usage: FloatArray | None = None
    ) -> InstanceSpec | None:
        """The shared segment for one (instance, committed usage) pair.

        Keyed by the compilation fingerprint plus the base usage's
        bytes, so re-dispatching the same window attaches the existing
        segment instead of re-publishing."""
        key = (
            compiled.fingerprint,
            None if base_usage is None else bytes(
                np.ascontiguousarray(base_usage, dtype=np.float64)
            ),
        )
        shared = self._published.get(key)
        if shared is not None:
            return shared.spec
        try:
            shared = publish_instance(compiled, base_usage)
        except Exception:
            self._fallback("shared_memory")
            return None
        self._published[key] = shared
        return shared.spec

    # ------------------------------------------------------------------
    def _payload(self, spec: InstanceSpec) -> InstanceSpec | str:
        """Full spec on a segment's first batch, bare name afterwards.

        The spec carries the layout table and the whole group structure
        — kilobytes pickled into *every* task of *every* generation
        before this existed.  Once one batch over a segment completes,
        every pool worker has very likely attached it (tasks outnumber
        workers), so later batches ship the ~60-byte name and workers
        resolve it from their attachment cache; the parent repairs the
        rare miss by resubmitting that chunk with the spec.
        """
        return spec.segment if spec.segment in self._spec_sent else spec

    def _chunks(self, count: int) -> list[np.ndarray]:
        n_tasks = min(count, self.n_workers * self.tasks_per_worker)
        # Fewer, larger chunks: never cut below min_chunk_rows per task
        # (one task total when the whole dispatch is smaller than that).
        n_tasks = min(n_tasks, max(1, count // self.min_chunk_rows))
        return np.array_split(np.arange(count), n_tasks)

    def repair_rows(
        self,
        compiled: CompiledProblem,
        params: RepairParams,
        genomes: IntArray,
        rows: IntArray,
        *,
        root: np.random.SeedSequence,
        batch_index: int,
        base_usage: FloatArray | None = None,
    ) -> IntArray | None:
        """Fan one generation's infeasible slice out over the pool.

        ``genomes`` holds the infeasible genomes (one per entry of
        ``rows``, which carries their population indices — the
        coordinate the per-individual RNG stream is derived from).
        Returns the repaired genomes in the same order, or ``None`` on
        any failure (callers redo the work serially; the spawn-key RNG
        derivation makes that produce identical bytes)."""
        pool = self._ensure_pool()
        if pool is None:
            return None
        spec = self.publish(compiled, base_usage=base_usage)
        if spec is None:
            return None
        genomes = np.ascontiguousarray(genomes, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.int64)
        registry = get_registry()
        chunks = self._chunks(rows.size)
        payload = self._payload(spec)
        stopwatch = Stopwatch().start()
        try:
            futures = [
                pool.submit(
                    _repair_task,
                    payload,
                    params,
                    genomes[chunk],
                    rows[chunk],
                    root,
                    batch_index,
                )
                for chunk in chunks
            ]
            parts: list[np.ndarray] = []
            busy = 0.0
            # Futures are consumed in submission order, so the merged
            # result is deterministic regardless of completion order.
            for chunk, future in zip(chunks, futures):
                try:
                    repaired, snapshot, elapsed = future.result()
                except _AttachMiss:
                    # A spec-ref landed on a worker that never saw the
                    # full spec (fresh/respawned worker): resubmit just
                    # this chunk with the spec.  Rare by construction.
                    registry.count("engine.parallel.specref.misses")
                    repaired, snapshot, elapsed = pool.submit(
                        _repair_task,
                        spec,
                        params,
                        genomes[chunk],
                        rows[chunk],
                        root,
                        batch_index,
                    ).result()
                parts.append(repaired)
                registry.merge(snapshot)
                registry.observe("engine.parallel.task_seconds", elapsed)
                busy += elapsed
        except Exception:
            self._fallback("dispatch")
            return None
        stopwatch.stop()
        self._spec_sent.add(spec.segment)
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
        """Shut the pool down and unlink every published segment."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        for shared in self._published.values():
            shared.close()
        self._published.clear()

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
        return (
            f"ParallelEngine(n_workers={self.n_workers}, "
            f"segments={len(self._published)}, state={state})"
        )
