"""The cyclic time-window scheduler.

Operates exactly as Section III sketches: requests arriving during a
window are batched; at the window boundary the batch is handed —
together with the live platform state — to the configured allocation
algorithm; accepted placements are committed (their capacity becomes
unavailable to later windows) and rejected requests are reported.

:meth:`TimeWindowScheduler.reoptimize` is the reconfiguration cycle:
every hosted tenant is re-optimized as one instance with the current
allocation as X^t, so the migration objective (Eq. 26) is live, and the
resulting plan is applied atomically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.allocator import Allocator, BatchOutcome
from repro.engine import ProblemCache
from repro.errors import SchedulerError
from repro.model.infrastructure import Infrastructure
from repro.model.placement import Placement
from repro.model.request import Request
from repro.model.placement import UNPLACED
from repro.model.state import PlatformState
from repro.scheduler.events import (
    ArrivalEvent,
    DepartureEvent,
    EventQueue,
    ServerFailureEvent,
    ServerRecoveryEvent,
)
from repro.scheduler.reconfiguration import MigrationPlan, plan_migration
from repro.serialization import request_from_dict, request_to_dict
from repro.telemetry import (
    MigrationPlanned,
    RequestRejected,
    WindowClosed,
    get_bus,
    get_registry,
    span,
)

__all__ = ["WindowReport", "TimeWindowScheduler"]


@dataclass(frozen=True)
class WindowReport:
    """What happened in one scheduling window."""

    window_index: int
    start_time: float
    end_time: float
    arrivals: tuple[str, ...]
    departures: tuple[str, ...]
    accepted: tuple[str, ...]
    rejected: tuple[str, ...]
    outcome: BatchOutcome | None
    failures: tuple[int, ...] = ()
    recoveries: tuple[int, ...] = ()
    displaced: tuple[str, ...] = ()
    #: Servers taken out of service this window for planned maintenance
    #: (``schedule_drain``) — handled like failures, reported apart.
    drains: tuple[int, ...] = ()

    @property
    def rejection_rate(self) -> float:
        """Fraction of this window's arrivals that were rejected."""
        total = len(self.accepted) + len(self.rejected)
        return len(self.rejected) / total if total else 0.0


@dataclass
class TimeWindowScheduler:
    """Batching scheduler over one infrastructure and one allocator."""

    infrastructure: Infrastructure
    allocator: Allocator
    window_length: float = 1.0
    #: Compilation cache threaded through every window solve (and any
    #: reoptimize-override allocator), so instances seen in earlier
    #: windows are never recompiled.
    problem_cache: ProblemCache = field(default_factory=ProblemCache)
    state: PlatformState = field(init=False)
    _queue: EventQueue = field(init=False, default_factory=EventQueue)
    _requests: dict[str, Request] = field(init=False, default_factory=dict)
    _clock: float = field(init=False, default=0.0)
    _window_index: int = field(init=False, default=0)
    _failed_servers: set[int] = field(init=False, default_factory=set)

    def __post_init__(self) -> None:
        if self.window_length <= 0:
            raise SchedulerError(
                f"window_length must be > 0, got {self.window_length}"
            )
        self.state = PlatformState(self.infrastructure)
        self.allocator.problem_cache = self.problem_cache

    # ------------------------------------------------------------------
    # Event submission
    # ------------------------------------------------------------------
    def submit(self, key: str, request: Request, at: float | None = None) -> None:
        """Enqueue a consumer request (defaults to 'now')."""
        if key in self._requests:
            raise SchedulerError(f"request key {key!r} already submitted")
        self._requests[key] = request
        self._queue.push(
            ArrivalEvent(
                time=self._clock if at is None else at, key=key, request=request
            )
        )

    def schedule_departure(self, key: str, at: float) -> None:
        """Enqueue a future departure for a (to-be-)hosted request."""
        self._queue.push(DepartureEvent(time=at, key=key))

    def schedule_failure(self, server: int, at: float) -> None:
        """Enqueue a server failure (the paper's platform flow events)."""
        if not (0 <= server < self.infrastructure.m):
            raise SchedulerError(
                f"server {server} outside [0, {self.infrastructure.m})"
            )
        self._queue.push(ServerFailureEvent(time=at, server=server))

    def schedule_drain(self, server: int, at: float) -> None:
        """Enqueue a maintenance drain: forced evacuation of ``server``.

        Semantically a planned failure — the server leaves the usable
        estate and its tenants are displaced into the window batch for
        re-placement — but reported separately (``WindowReport.drains``,
        ``scheduler.drains``) so operations can tell maintenance from
        crashes.  Pair with :meth:`schedule_recovery` to end the
        maintenance window.
        """
        if not (0 <= server < self.infrastructure.m):
            raise SchedulerError(
                f"server {server} outside [0, {self.infrastructure.m})"
            )
        self._queue.push(
            ServerFailureEvent(time=at, server=server, reason="drain")
        )

    def schedule_recovery(self, server: int, at: float) -> None:
        """Enqueue a server returning to service."""
        if not (0 <= server < self.infrastructure.m):
            raise SchedulerError(
                f"server {server} outside [0, {self.infrastructure.m})"
            )
        self._queue.push(ServerRecoveryEvent(time=at, server=server))

    @property
    def failed_servers(self) -> frozenset[int]:
        """Servers currently out of service."""
        return frozenset(self._failed_servers)

    def has_request(self, key: str) -> bool:
        """Whether ``key`` was ever submitted (hosted, pending or rejected).

        Submitted keys are permanent: re-submitting one raises, so a
        live admission layer must pre-check here before enqueueing.
        """
        return key in self._requests

    def request_for(self, key: str) -> Request | None:
        """The request object submitted under ``key``, if any."""
        return self._requests.get(key)

    @property
    def clock(self) -> float:
        """Current simulated time."""
        return self._clock

    @property
    def window_index(self) -> int:
        """Index of the next window to run (= windows closed so far)."""
        return self._window_index

    @property
    def pending_events(self) -> int:
        """Events not yet processed."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Window processing
    # ------------------------------------------------------------------
    def _displace_tenants_on(self, server: int) -> list[tuple[str, Request, np.ndarray]]:
        """Release every tenant touching ``server``; return their
        (key, request, previous assignment) for re-placement.  Genes on
        the failed server become UNPLACED in the previous assignment so
        the forced move is not charged as a migration."""
        displaced: list[tuple[str, Request, np.ndarray]] = []
        for key in list(self.state.tenants()):
            assignment = self.state.previous_assignment(key)
            if assignment is None or not np.any(assignment == server):
                continue
            previous = assignment.copy()
            previous[previous == server] = UNPLACED
            self.state.release(key)
            displaced.append((key, self._requests[key], previous))
        return displaced

    def run_window(self) -> WindowReport:
        """Advance one window: drain events, allocate, commit."""
        start = self._clock
        self._clock += self.window_length
        events = self._queue.pop_until(self._clock)

        departures: list[str] = []
        failures: list[int] = []
        drains: list[int] = []
        recoveries: list[int] = []
        batch_keys: list[str] = []
        batch_requests: list[Request] = []
        batch_previous: list[np.ndarray | None] = []
        displaced_keys: list[str] = []

        for event in events:
            if isinstance(event, DepartureEvent):
                if event.key in self.state.tenants():
                    self.state.release(event.key)
                    departures.append(event.key)
                # Departures of never-hosted (rejected) requests are
                # silently dropped: there is nothing to release.
            elif isinstance(event, ServerFailureEvent):
                if event.server not in self._failed_servers:
                    self._failed_servers.add(event.server)
                    (drains if event.reason == "drain" else failures).append(
                        event.server
                    )
                    # A tenant displaced by an *earlier* failure in this
                    # same window may still reference this server in the
                    # previous assignment it carries into the batch.
                    # Scrub those genes too: the second forced move must
                    # not be charged as a migration, and the allocator
                    # must never anchor to an out-of-service host.
                    for previous in batch_previous:
                        if previous is not None and np.any(
                            previous == event.server
                        ):
                            previous[previous == event.server] = UNPLACED
                    for key, request, previous in self._displace_tenants_on(
                        event.server
                    ):
                        batch_keys.append(key)
                        batch_requests.append(request)
                        batch_previous.append(previous)
                        displaced_keys.append(key)
            elif isinstance(event, ServerRecoveryEvent):
                if event.server in self._failed_servers:
                    self._failed_servers.discard(event.server)
                    recoveries.append(event.server)
            else:  # ArrivalEvent
                batch_keys.append(event.key)
                batch_requests.append(event.request)
                batch_previous.append(None)

        outcome: BatchOutcome | None = None
        accepted: list[str] = []
        rejected: list[str] = []
        if batch_requests:
            previous_assignment = None
            if any(p is not None for p in batch_previous):
                parts = [
                    p if p is not None else np.full(r.n, UNPLACED, dtype=np.int64)
                    for p, r in zip(batch_previous, batch_requests)
                ]
                previous_assignment = np.concatenate(parts)
            with span(
                "scheduler.allocate",
                window=self._window_index,
                requests=len(batch_requests),
            ):
                # Committed usage with every failed server full, so no
                # allocator can place anything on an out-of-service host.
                base_usage = self.infrastructure.blocked_usage(
                    self.state.committed_usage, sorted(self._failed_servers)
                )
                outcome = self.allocator.allocate(
                    self.infrastructure,
                    batch_requests,
                    base_usage=base_usage,
                    previous_assignment=previous_assignment,
                )
            offset = 0
            for idx, (key, request) in enumerate(zip(batch_keys, batch_requests)):
                block = outcome.assignment[offset : offset + request.n]
                offset += request.n
                if outcome.accepted[idx] and np.all(block >= 0):
                    placement = Placement(
                        assignment=block.copy(),
                        infrastructure=self.infrastructure,
                    )
                    self.state.commit(key, placement, request)
                    accepted.append(key)
                else:
                    rejected.append(key)

        report = WindowReport(
            window_index=self._window_index,
            start_time=start,
            end_time=self._clock,
            arrivals=tuple(k for k in batch_keys if k not in displaced_keys),
            departures=tuple(departures),
            accepted=tuple(accepted),
            rejected=tuple(rejected),
            outcome=outcome,
            failures=tuple(failures),
            recoveries=tuple(recoveries),
            displaced=tuple(displaced_keys),
            drains=tuple(drains),
        )
        self._record_window_telemetry(report)
        self._window_index += 1
        return report

    def _record_window_telemetry(self, report: WindowReport) -> None:
        """Counters + events for one closed window.  Rejections are
        emitted before the WindowClosed marker, so a sink replaying the
        stream sees each window's decisions, then its close."""
        registry = get_registry()
        registry.count("scheduler.windows")
        registry.count("scheduler.arrivals", len(report.arrivals))
        registry.count("scheduler.departures", len(report.departures))
        registry.count("scheduler.accepted", len(report.accepted))
        registry.count("scheduler.rejected", len(report.rejected))
        registry.count("scheduler.displaced", len(report.displaced))
        registry.count("scheduler.failures", len(report.failures))
        registry.count("scheduler.drains", len(report.drains))
        registry.count("scheduler.recoveries", len(report.recoveries))
        bus = get_bus()
        if not bus.enabled:
            return
        displaced = set(report.displaced)
        for key in report.rejected:
            bus.emit(
                RequestRejected(
                    key=key,
                    window_index=report.window_index,
                    reason="displaced" if key in displaced else "capacity",
                )
            )
        bus.emit(
            WindowClosed(
                window_index=report.window_index,
                start_time=report.start_time,
                end_time=report.end_time,
                arrivals=len(report.arrivals),
                departures=len(report.departures),
                accepted=len(report.accepted),
                rejected=len(report.rejected),
                displaced=len(report.displaced),
                failures=len(report.failures),
                recoveries=len(report.recoveries),
                drains=len(report.drains),
            )
        )

    def run(self, max_windows: int = 1_000) -> list[WindowReport]:
        """Process windows until the event queue drains (or the cap)."""
        reports: list[WindowReport] = []
        while self._queue and len(reports) < max_windows:
            reports.append(self.run_window())
        return reports

    def close(self) -> None:
        """Release the allocator's resources: its own worker pool, or
        for a portfolio its members' shared pool."""
        self.allocator.close()

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-able snapshot of the simulation state.

        Captures the clock, window index, failed servers, every known
        request, committed residents and pending events — everything
        needed to rebuild the scheduler at the same window boundary.
        Arrival events store only their request key (the request itself
        lives in the requests map).
        """
        events: list[dict] = []
        for event in self._queue.snapshot():
            if isinstance(event, ArrivalEvent):
                events.append(
                    {"type": "arrival", "time": event.time, "key": event.key}
                )
            elif isinstance(event, DepartureEvent):
                events.append(
                    {"type": "departure", "time": event.time, "key": event.key}
                )
            elif isinstance(event, ServerFailureEvent):
                events.append(
                    {
                        "type": "failure",
                        "time": event.time,
                        "server": event.server,
                        "reason": event.reason,
                    }
                )
            elif isinstance(event, ServerRecoveryEvent):
                events.append(
                    {"type": "recovery", "time": event.time, "server": event.server}
                )
            else:  # pragma: no cover - future event kinds must opt in
                raise SchedulerError(
                    f"cannot checkpoint event of type {type(event).__name__}"
                )
        # Ordered pairs, not mappings: the on-disk envelope canonicalizes
        # dict keys, but commit order is trajectory state (it decides
        # tenant concatenation order in reoptimize passes).
        residents = [
            [key, [int(g) for g in self.state.previous_assignment(key)]]
            for key in self.state.tenants()
        ]
        return {
            "window_length": self.window_length,
            "clock": self._clock,
            "window_index": self._window_index,
            "failed_servers": sorted(self._failed_servers),
            "requests": [
                [key, request_to_dict(req)] for key, req in self._requests.items()
            ],
            "residents": residents,
            # The accumulated matrix itself, not just the ledger: usage
            # evolves by +demand/-demand increments whose float
            # round-off a fresh rebuild would not reproduce, and resume
            # is byte-identical only if the restored scheduler hands
            # allocators the exact same base_usage.
            "committed_usage": self.state.committed_usage.tolist(),
            "pending": events,
            # Cross-window allocator state (round robin's pointer); None
            # for stateless allocators.
            "allocator": self.allocator.runtime_state(),
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this scheduler.

        The scheduler must be freshly constructed (no submitted
        requests, no committed tenants) over the same infrastructure
        the snapshot was taken from.
        """
        if self._requests or self.state.tenants():
            raise SchedulerError(
                "load_state_dict requires a freshly constructed scheduler"
            )
        self._clock = float(payload["clock"])
        self._window_index = int(payload["window_index"])
        self._failed_servers = {int(s) for s in payload["failed_servers"]}
        self._requests = {
            key: request_from_dict(data) for key, data in payload["requests"]
        }
        for key, genes in payload["residents"]:
            request = self._requests.get(key)
            if request is None:
                raise SchedulerError(
                    f"checkpoint resident {key!r} has no request record"
                )
            placement = Placement(
                assignment=np.asarray(genes, dtype=np.int64),
                infrastructure=self.infrastructure,
            )
            self.state.commit(key, placement, request)
        # Adopt the snapshot's accumulated usage matrix verbatim (see
        # state_dict), after checking the rebuilt ledger agrees with it
        # to float tolerance.
        usage = np.asarray(payload["committed_usage"], dtype=np.float64)
        if usage.shape != self.state.committed_usage.shape:
            raise SchedulerError(
                "checkpoint usage matrix does not match this infrastructure"
            )
        if not np.allclose(usage, self.state.committed_usage, atol=1e-9):
            raise SchedulerError(
                "checkpoint usage matrix diverged from its resident ledger"
            )
        self.state.committed_usage = usage
        for event in payload["pending"]:
            kind = event["type"]
            if kind == "arrival":
                request = self._requests.get(event["key"])
                if request is None:
                    raise SchedulerError(
                        f"checkpoint arrival {event['key']!r} has no request record"
                    )
                self._queue.push(
                    ArrivalEvent(
                        time=event["time"], key=event["key"], request=request
                    )
                )
            elif kind == "departure":
                self._queue.push(
                    DepartureEvent(time=event["time"], key=event["key"])
                )
            elif kind == "failure":
                self._queue.push(
                    ServerFailureEvent(
                        time=event["time"],
                        server=event["server"],
                        reason=event.get("reason", "failure"),
                    )
                )
            elif kind == "recovery":
                self._queue.push(
                    ServerRecoveryEvent(time=event["time"], server=event["server"])
                )
            else:
                raise SchedulerError(f"unknown checkpointed event type {kind!r}")
        allocator_state = payload.get("allocator")
        if allocator_state is not None:
            self.allocator.restore_runtime_state(allocator_state)

    # ------------------------------------------------------------------
    # Reconfiguration
    # ------------------------------------------------------------------
    def reoptimize(
        self, allocator: Allocator | None = None
    ) -> tuple[BatchOutcome, MigrationPlan] | None:
        """Re-optimize every hosted tenant as one instance (X^t → X^{t+1}).

        The current allocation is passed as ``previous_assignment``, so
        the migration objective is active and the optimizer trades
        packing gains against movement cost.  Returns None when the
        platform is empty.  The plan is applied only if the new
        allocation is accepted for every tenant; otherwise the platform
        is left untouched and the (outcome, plan) pair is still
        returned for inspection.
        """
        tenants = self.state.tenants()
        if not tenants:
            return None
        algo = allocator or self.allocator
        # Override allocators join the scheduler's compilation cache so
        # a reoptimize pass over already-hosted tenants reuses the
        # windows' compiled instances.
        algo.problem_cache = self.problem_cache
        requests = [self._requests[k] for k in tenants]
        previous_parts = [self.state.previous_assignment(k) for k in tenants]
        previous = np.concatenate(previous_parts)

        # Tenants are re-placed from scratch, but failed servers stay
        # blocked for the re-optimization too.
        base_usage = None
        if self._failed_servers:
            base_usage = self.infrastructure.blocked_usage(
                None, sorted(self._failed_servers)
            )
        outcome = algo.allocate(
            self.infrastructure,
            requests,
            base_usage=base_usage,
            previous_assignment=previous,
        )
        merged, _ = Request.concatenate(requests)
        plan = plan_migration(previous, outcome.assignment, merged)

        applied = bool(outcome.accepted.all()) and outcome.violations == 0
        if applied:
            offset = 0
            for key, request in zip(tenants, requests):
                block = outcome.assignment[offset : offset + request.n]
                offset += request.n
                placement = Placement(
                    assignment=block.copy(), infrastructure=self.infrastructure
                )
                self.state.release(key)
                self.state.commit(key, placement, request)

        registry = get_registry()
        registry.count("scheduler.reoptimizations")
        if applied:
            registry.count("scheduler.migration_moves", plan.size)
        bus = get_bus()
        if bus.enabled:
            bus.emit(
                MigrationPlanned(
                    tenants=len(tenants),
                    moves=plan.size,
                    boots=len(plan.boots),
                    shutdowns=len(plan.shutdowns),
                    cost=plan.total_cost,
                    applied=applied,
                )
            )
        return outcome, plan
