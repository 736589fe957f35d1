"""Single-writer, event-sourced state of the allocation service.

The control plane splits into a fast synchronous admission path and a
slow asynchronous reoptimization path, both of which ultimately talk to
one :class:`~repro.scheduler.window.TimeWindowScheduler`.
:class:`ServiceState` is the narrow waist between them:

* every mutation goes through one of two entry points —
  :meth:`admit` (an admission micro-batch closed as one scheduler
  window) or :meth:`apply_reoptimization` (a migration plan computed in
  the background) — and both are only ever called from the service's
  single writer (the asyncio event loop thread);
* every mutation appends a JSON-able record to the **admission log**,
  so the whole session can be replayed deterministically through a
  batch :class:`TimeWindowScheduler` (``repro.verify.service`` — the
  service's differential oracle);
* every mutation bumps the **epoch** counter.  The reoptimizer
  snapshots ``(state_dict, epoch)``, chews on the copy in a worker
  thread, and its plan is applied only if the epoch is unchanged —
  the copy-on-write handoff that keeps admission latency flat while
  NSGA-III+tabu runs in the background.  A plan raced by an admission,
  departure or drain is simply discarded as stale.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.allocator import Allocator
from repro.baselines.fits import BestFitAllocator
from repro.errors import SchedulerError
from repro.model.infrastructure import Infrastructure
from repro.model.placement import Placement
from repro.model.request import Request
from repro.scheduler.window import TimeWindowScheduler, WindowReport
from repro.serialization import request_from_dict, request_to_dict
from repro.telemetry import get_registry

__all__ = ["ServiceState", "default_admission_allocator", "replay_admission_log"]


def default_admission_allocator() -> Allocator:
    """The incumbent-placement algorithm of the admission path.

    Best-fit greedy: deterministic, never emits violating placements,
    and O(milliseconds) per micro-batch — the properties live admission
    needs.  Stateless, so a replay constructs the byte-identical
    allocator.
    """
    return BestFitAllocator()


class ServiceState:
    """The service's authoritative allocation state (single writer).

    Parameters
    ----------
    infrastructure:
        The provider estate the service allocates.
    allocator:
        Admission allocator (defaults to best-fit greedy).
    window_length:
        Simulated length of one admission micro-batch window.  The
        service clock is *logical*: it advances by this much per
        processed batch, which is what makes the admission log
        replayable.
    seed:
        Seed of the background reoptimizer's EA; kept in snapshots.
    """

    def __init__(
        self,
        infrastructure: Infrastructure,
        allocator: Allocator | None = None,
        window_length: float = 1.0,
        seed: int = 0,
    ) -> None:
        self.seed = int(seed)
        self.scheduler = TimeWindowScheduler(
            infrastructure=infrastructure,
            allocator=allocator or default_admission_allocator(),
            window_length=window_length,
        )
        #: Ordered JSON-able mutation records (see module docstring).
        self.log: list[dict[str, Any]] = []
        #: Monotonic mutation counter; the reoptimizer's staleness token.
        self.epoch = 0

    # ------------------------------------------------------------------
    # Read side (safe from the event loop between mutations)
    # ------------------------------------------------------------------
    @property
    def infrastructure(self) -> Infrastructure:
        """The estate this service allocates."""
        return self.scheduler.infrastructure

    def residents(self) -> dict[str, list[int]]:
        """Hosted tenants and their committed placements (commit order)."""
        state = self.scheduler.state
        return {
            key: [int(g) for g in state.previous_assignment(key)]
            for key in state.tenants()
        }

    def tenant_count(self) -> int:
        """Number of currently hosted tenants."""
        return len(self.scheduler.state.tenants())

    def is_hosted(self, key: str) -> bool:
        """Whether ``key`` currently holds capacity."""
        return key in self.scheduler.state.tenants()

    def knows_key(self, key: str) -> bool:
        """Whether ``key`` was ever submitted (hosted OR rejected)."""
        return self.scheduler.has_request(key)

    # ------------------------------------------------------------------
    # Write side: admission micro-batches
    # ------------------------------------------------------------------
    def admit(
        self,
        arrivals: Sequence[tuple[str, Request]] = (),
        departures: Iterable[str] = (),
        failures: Iterable[int] = (),
        recoveries: Iterable[int] = (),
        drains: Iterable[int] = (),
    ) -> WindowReport:
        """Close one admission micro-batch as a scheduler window.

        All events are stamped at the current logical clock and the
        window is run immediately, so the decision comes back
        synchronously.  ``drains`` are maintenance evacuations —
        handled exactly like ``failures``, logged and reported apart.
        The batch — inputs *and* decisions — is appended to the
        admission log, and the epoch advances.
        """
        scheduler = self.scheduler
        arrivals = list(arrivals)
        departures = list(departures)
        failures = [int(s) for s in failures]
        recoveries = [int(s) for s in recoveries]
        drains = [int(s) for s in drains]
        for key, request in arrivals:
            scheduler.submit(key, request)
        clock = scheduler.clock
        for key in departures:
            scheduler.schedule_departure(key, at=clock)
        for server in failures:
            scheduler.schedule_failure(server, at=clock)
        for server in drains:
            scheduler.schedule_drain(server, at=clock)
        for server in recoveries:
            scheduler.schedule_recovery(server, at=clock)
        report = scheduler.run_window()
        record = {
            "type": "window",
            "window_index": report.window_index,
            "arrivals": [
                [key, request_to_dict(request)] for key, request in arrivals
            ],
            "departures": departures,
            "failures": failures,
            "recoveries": recoveries,
            "accepted": list(report.accepted),
            "rejected": list(report.rejected),
            "displaced": list(report.displaced),
        }
        if drains:
            # Only stamped when present, so logs from drain-free
            # sessions stay byte-identical to earlier releases.
            record["drains"] = drains
        self.log.append(record)
        self.epoch += 1
        get_registry().gauge("service.state.epoch", self.epoch)
        return report

    # ------------------------------------------------------------------
    # Write side: background reoptimization handoff
    # ------------------------------------------------------------------
    def snapshot(self) -> tuple[dict[str, Any], int]:
        """Copy-on-write handoff: ``(scheduler state_dict, epoch)``.

        The payload is a deep JSON-able copy — the background worker
        rebuilds a private shadow scheduler from it and never touches
        live state.
        """
        return self.scheduler.state_dict(), self.epoch

    def apply_reoptimization(
        self, assignments: Mapping[str, Sequence[int]], epoch: int
    ) -> bool:
        """Atomically adopt a migration plan computed against ``epoch``.

        Returns ``False`` (and changes nothing) when the state has
        moved on since the snapshot — the plan is stale.  Otherwise
        every listed tenant is re-committed to its new placement, the
        plan is appended to the admission log (verbatim genes, so
        replay does not need to re-run the optimizer) and the epoch
        advances.
        """
        registry = get_registry()
        if epoch != self.epoch:
            registry.count("service.reoptimize.stale")
            return False
        state = self.scheduler.state
        hosted = set(state.tenants())
        if set(assignments) != hosted:
            # Defensive: a plan must cover exactly the resident set it
            # was computed from; anything else means the epoch guard
            # was bypassed.
            raise SchedulerError(
                "reoptimization plan tenant set does not match residents"
            )
        infrastructure = self.scheduler.infrastructure
        for key in list(state.tenants()):
            genes = np.asarray(list(assignments[key]), dtype=np.int64)
            request = self.scheduler.request_for(key)
            placement = Placement(assignment=genes, infrastructure=infrastructure)
            state.release(key)
            state.commit(key, placement, request)
        self.log.append(
            {
                "type": "reoptimize",
                "epoch": epoch,
                "assignments": [
                    [key, [int(g) for g in genes]]
                    for key, genes in assignments.items()
                ],
            }
        )
        self.epoch += 1
        registry.count("service.reoptimize.applied")
        registry.gauge("service.state.epoch", self.epoch)
        return True

    # ------------------------------------------------------------------
    # Checkpoint payloads
    # ------------------------------------------------------------------
    def state_payload(self) -> dict[str, Any]:
        """JSON-able snapshot: scheduler state + admission log + epoch."""
        return {
            "seed": self.seed,
            "epoch": self.epoch,
            "scheduler": self.scheduler.state_dict(),
            "log": self.log,
        }

    def restore_payload(self, payload: dict[str, Any]) -> None:
        """Restore :meth:`state_payload` into this (fresh) state."""
        self.seed = int(payload["seed"])
        self.epoch = int(payload["epoch"])
        self.log = list(payload["log"])
        self.scheduler.load_state_dict(payload["scheduler"])


def replay_admission_log(
    infrastructure: Infrastructure,
    log: Sequence[dict[str, Any]],
    *,
    seed: int = 0,
    window_length: float = 1.0,
    allocator: Allocator | None = None,
) -> ServiceState:
    """Replay an admission log through a fresh batch scheduler.

    This is the deterministic half of the service's differential
    oracle: windows are re-run through the same admission
    allocator, reoptimize records re-apply their recorded plans
    verbatim, and the resulting :class:`ServiceState` can be compared
    byte-for-byte against the live service's residents and ledger
    (see :mod:`repro.verify.service`).
    """
    replayed = ServiceState(
        infrastructure,
        allocator=allocator or default_admission_allocator(),
        window_length=window_length,
        seed=seed,
    )
    for record in log:
        kind = record.get("type")
        if kind == "window":
            replayed.admit(
                arrivals=[
                    (key, request_from_dict(data))
                    for key, data in record["arrivals"]
                ],
                departures=record.get("departures", ()),
                failures=record.get("failures", ()),
                recoveries=record.get("recoveries", ()),
                drains=record.get("drains", ()),
            )
        elif kind == "reoptimize":
            replayed.apply_reoptimization(
                dict((key, genes) for key, genes in record["assignments"]),
                epoch=replayed.epoch,
            )
        else:
            raise SchedulerError(f"unknown admission-log record type {kind!r}")
    return replayed
