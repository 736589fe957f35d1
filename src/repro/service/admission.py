"""Live admission control: milliseconds-scale accept/reject decisions.

Placement requests stream in over HTTP; each must be answered fast,
against the *current* platform state, without waiting for the
background optimizer.  :class:`AdmissionController` implements the
paper's time-window batching at micro scale:

* API handlers enqueue work items into one **bounded** queue (overflow
  is the API layer's 429);
* a single worker task drains whatever is queued — one item under
  light load, a real batch under pressure — and closes the batch as
  one scheduler window via :meth:`ServiceState.admit`;
* each caller gets back a structured :class:`AdmissionDecision`
  (accepted/rejected + machine-readable reason + placement), and the
  admission latency histogram records the full enqueue-to-decision
  wall time.

Because the worker is one asyncio task and every mutation happens
inside it, the service state keeps its single-writer guarantee without
locks.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.model.request import Request
from repro.service.state import ServiceState
from repro.tabu.neighborhood import NeighborFinder
from repro.telemetry import get_registry

__all__ = ["AdmissionDecision", "AdmissionController", "diagnose_rejection"]


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's answer to one mutation request."""

    key: str
    action: str  #: "arrival" | "departure" | "drain" | "recover"
    accepted: bool
    reason: str | None = None
    window_index: int | None = None
    placement: tuple[int, ...] | None = None
    latency: float = 0.0
    #: Side effects of drain/recover batches (keys displaced, rehomed...)
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON body the API layer returns."""
        body: dict[str, Any] = {
            "key": self.key,
            "action": self.action,
            "accepted": self.accepted,
            "latency_seconds": self.latency,
        }
        if self.reason is not None:
            body["reason"] = self.reason
        if self.window_index is not None:
            body["window"] = self.window_index
        if self.placement is not None:
            body["placement"] = list(self.placement)
        if self.detail:
            body.update(self.detail)
        return body


def diagnose_rejection(state: ServiceState, request: Request) -> str:
    """Best-effort structured reason for a greedy rejection.

    Re-walks the request's resources (greedy order) against the
    current committed usage, failed servers full: if some resource has
    no server passing the capacity test the reason is ``capacity``; if
    capacity passes but the group rules empty the candidate set it is
    ``affinity``.  Both are the validity primitives of
    :class:`~repro.tabu.neighborhood.NeighborFinder`, over the
    scheduler's cached compilation of the request.  Heuristic by
    construction — the greedy path is order-dependent — but cheap and
    right in the common cases.
    """
    scheduler = state.scheduler
    infra = scheduler.infrastructure
    finder = NeighborFinder(scheduler.problem_cache.get(infra, request))
    usage = infra.blocked_usage(
        scheduler.state.committed_usage, sorted(scheduler.failed_servers)
    )
    limit = finder.limit
    residual = limit - usage
    assignment = np.full(request.n, -1, dtype=np.int64)
    for k in range(request.n):
        valid = finder.fits(residual, k)
        if not valid.any():
            return "capacity"
        if not finder.apply_rules(valid, assignment, k).any():
            return "affinity"
        server = int(np.flatnonzero(valid)[0])
        assignment[k] = server
        usage[server] += request.demand[k]
        residual[server] = limit[server] - usage[server]
    # The full request walks through greedily now — the window
    # allocator rejected it in competition with the rest of its batch.
    return "capacity"


@dataclass
class _WorkItem:
    """One queued mutation awaiting the admission worker."""

    action: str  #: "arrival" | "departure" | "drain" | "recover"
    key: str
    request: Request | None
    server: int | None
    future: asyncio.Future
    enqueued_at: float


class AdmissionController:
    """Bounded-queue micro-batching front of :class:`ServiceState`."""

    def __init__(self, state: ServiceState, max_queue: int = 256) -> None:
        self.state = state
        self.max_queue = int(max_queue)
        self._queue: asyncio.Queue[_WorkItem] = asyncio.Queue(maxsize=max_queue)
        self._task: asyncio.Task | None = None
        #: Called after every processed batch (the app hooks its
        #: checkpoint cadence here).
        self.on_batch = None

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Items currently waiting for the worker."""
        return self._queue.qsize()

    def start(self) -> None:
        """Spawn the single worker task (idempotent)."""
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="admission-worker"
            )

    async def stop(self) -> None:
        """Drain whatever is queued, then cancel the worker."""
        while not self._queue.empty():
            await asyncio.sleep(0)
        task = self._task
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            self._task = None

    # ------------------------------------------------------------------
    # Enqueue API (called by the HTTP layer)
    # ------------------------------------------------------------------
    def _enqueue(
        self, action: str, key: str, request: Request | None, server: int | None
    ) -> asyncio.Future | None:
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        item = _WorkItem(
            action=action,
            key=key,
            request=request,
            server=server,
            future=future,
            enqueued_at=time.perf_counter(),
        )
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            get_registry().count("service.admission.queue_full")
            return None
        get_registry().gauge("service.queue.depth", self._queue.qsize())
        return future

    async def submit_request(
        self, key: str, request: Request
    ) -> AdmissionDecision | None:
        """Queue an arrival; ``None`` means the queue is full (429)."""
        future = self._enqueue("arrival", key, request, None)
        return None if future is None else await future

    async def depart(self, key: str) -> AdmissionDecision | None:
        """Queue a tenant departure; ``None`` means queue full (429)."""
        future = self._enqueue("departure", key, None, None)
        return None if future is None else await future

    async def drain(self, server: int) -> AdmissionDecision | None:
        """Queue a server drain (forced evacuation + re-placement)."""
        future = self._enqueue("drain", f"server-{server}", None, server)
        return None if future is None else await future

    async def recover(self, server: int) -> AdmissionDecision | None:
        """Queue a server returning to service."""
        future = self._enqueue("recover", f"server-{server}", None, server)
        return None if future is None else await future

    # ------------------------------------------------------------------
    # The worker
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        while True:
            item = await self._queue.get()
            batch = [item]
            while True:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            get_registry().gauge("service.queue.depth", self._queue.qsize())
            try:
                self._process(batch)
            except Exception as exc:  # noqa: BLE001 - worker must survive
                self._fail_batch(batch, exc)
            hook = self.on_batch
            if hook is not None:
                hook()

    def _fail_batch(self, batch: list[_WorkItem], exc: Exception) -> None:
        get_registry().count("service.admission.errors")
        for item in batch:
            if not item.future.done():
                item.future.set_result(
                    AdmissionDecision(
                        key=item.key,
                        action=item.action,
                        accepted=False,
                        reason="error",
                        detail={"message": str(exc)},
                    )
                )

    def _resolve(
        self, item: _WorkItem, decision: AdmissionDecision
    ) -> None:
        latency = time.perf_counter() - item.enqueued_at
        decision = AdmissionDecision(
            key=decision.key,
            action=decision.action,
            accepted=decision.accepted,
            reason=decision.reason,
            window_index=decision.window_index,
            placement=decision.placement,
            latency=latency,
            detail=decision.detail,
        )
        registry = get_registry()
        registry.observe(
            "service.admission.latency_seconds", latency, action=item.action
        )
        if not item.future.done():
            item.future.set_result(decision)

    def _process(self, batch: list[_WorkItem]) -> None:
        """Validate, close one window, and resolve every future."""
        state = self.state
        registry = get_registry()
        arrivals: list[_WorkItem] = []
        departures: list[_WorkItem] = []
        failures: list[_WorkItem] = []
        recoveries: list[_WorkItem] = []
        seen_keys: set[str] = set()
        for item in batch:
            if item.action == "arrival":
                if state.knows_key(item.key) or item.key in seen_keys:
                    registry.count("service.admission.rejected", reason="duplicate_key")
                    self._resolve(
                        item,
                        AdmissionDecision(
                            key=item.key,
                            action="arrival",
                            accepted=False,
                            reason="duplicate_key",
                        ),
                    )
                    continue
                seen_keys.add(item.key)
                arrivals.append(item)
            elif item.action == "departure":
                if not state.knows_key(item.key):
                    self._resolve(
                        item,
                        AdmissionDecision(
                            key=item.key,
                            action="departure",
                            accepted=False,
                            reason="unknown_key",
                        ),
                    )
                    continue
                if not state.is_hosted(item.key):
                    self._resolve(
                        item,
                        AdmissionDecision(
                            key=item.key,
                            action="departure",
                            accepted=False,
                            reason="not_hosted",
                        ),
                    )
                    continue
                departures.append(item)
            elif item.action == "drain":
                failures.append(item)
            else:  # recover
                recoveries.append(item)

        if not (arrivals or departures or failures or recoveries):
            return

        report = state.admit(
            arrivals=[(item.key, item.request) for item in arrivals],
            departures=[item.key for item in departures],
            failures=[item.server for item in failures],
            recoveries=[item.server for item in recoveries],
        )
        accepted = set(report.accepted)
        displaced = set(report.displaced)
        displaced_rejected = [
            key for key in report.rejected if key in displaced
        ]
        for item in arrivals:
            if item.key in accepted:
                registry.count("service.admission.accepted")
                placement = tuple(
                    int(g)
                    for g in state.scheduler.state.previous_assignment(item.key)
                )
                self._resolve(
                    item,
                    AdmissionDecision(
                        key=item.key,
                        action="arrival",
                        accepted=True,
                        window_index=report.window_index,
                        placement=placement,
                    ),
                )
            else:
                reason = diagnose_rejection(state, item.request)
                registry.count("service.admission.rejected", reason=reason)
                self._resolve(
                    item,
                    AdmissionDecision(
                        key=item.key,
                        action="arrival",
                        accepted=False,
                        reason=reason,
                        window_index=report.window_index,
                    ),
                )
        for item in departures:
            self._resolve(
                item,
                AdmissionDecision(
                    key=item.key,
                    action="departure",
                    accepted=True,
                    window_index=report.window_index,
                ),
            )
        for item in failures:
            self._resolve(
                item,
                AdmissionDecision(
                    key=item.key,
                    action="drain",
                    accepted=True,
                    window_index=report.window_index,
                    detail={
                        "displaced": sorted(displaced),
                        "rehomed": sorted(displaced & accepted),
                        "lost": sorted(displaced_rejected),
                    },
                ),
            )
        for item in recoveries:
            self._resolve(
                item,
                AdmissionDecision(
                    key=item.key,
                    action="recover",
                    accepted=True,
                    window_index=report.window_index,
                ),
            )
