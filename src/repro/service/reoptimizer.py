"""Background reoptimization: the paper's reconfiguration cycle, live.

While admission answers in milliseconds with greedy incumbent
placements, this loop periodically re-optimizes the whole resident set
with a deadline-bounded anytime portfolio (NSGA-III + tabu racing the
exact CP solve and a standalone tabu walk by default, optionally over
the PR 4 parallel engine) and migrates the platform toward a better
front — without ever blocking admission:

1. **snapshot** — :meth:`ServiceState.snapshot` hands over a deep
   JSON-able copy of the scheduler state plus the current epoch;
2. **shadow solve** — a worker thread rebuilds a private shadow
   scheduler from the copy and runs
   :meth:`~repro.scheduler.window.TimeWindowScheduler.reoptimize`
   with the configured portfolio; the live event loop keeps
   admitting the whole time;
3. **publish** — back on the loop, the resulting migration plan is
   applied only if (a) the shadow allocation is feasible, (b) it does
   not shrink the dominated hypervolume of the live allocation's
   objective point, and (c) the epoch is unchanged (no admissions,
   departures or drains raced the solve).  Anything else is discarded
   with a structured reason — stale plans are cheap, wrong migrations
   are not.

Cycle outcomes land in ``service.reoptimize.*`` telemetry and in the
:class:`ReoptimizeCycle` records the API exposes under ``/metrics``.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.ea.config import NSGAConfig
from repro.ea.hypervolume import hypervolume, reference_point
from repro.model.infrastructure import Infrastructure
from repro.model.request import Request
from repro.portfolio.racer import PortfolioAllocator
from repro.scheduler.window import TimeWindowScheduler
from repro.service.state import ServiceState
from repro.telemetry import get_registry, span

__all__ = [
    "DEFAULT_MEMBERS",
    "ReoptimizeCycle",
    "Reoptimizer",
    "shadow_reoptimize",
]

#: Default portfolio raced by the background reoptimizer.
DEFAULT_MEMBERS = "nsga3_tabu+cp+tabu"


@dataclass(frozen=True)
class ReoptimizeCycle:
    """What one background reoptimization cycle did."""

    index: int
    epoch: int
    tenants: int
    applied: bool
    reason: str  #: "applied" | "stale" | "infeasible" | "non_improving" | "empty"
    hv_before: float = 0.0
    hv_after: float = 0.0
    moves: int = 0
    elapsed: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON form for ``/metrics`` and the bench report."""
        return {
            "index": self.index,
            "epoch": self.epoch,
            "tenants": self.tenants,
            "applied": self.applied,
            "reason": self.reason,
            "hv_before": self.hv_before,
            "hv_after": self.hv_after,
            "moves": self.moves,
            "elapsed": self.elapsed,
        }


def shadow_reoptimize(
    infrastructure: Infrastructure,
    payload: dict[str, Any],
    config: NSGAConfig,
    members: str = DEFAULT_MEMBERS,
    deadline_ms: float | None = None,
) -> dict[str, Any]:
    """Run one reoptimization pass on a *private* shadow scheduler.

    Executed on a worker thread.  The solve races a deadline-bounded
    :class:`~repro.portfolio.racer.PortfolioAllocator` (instead of a
    fixed NSGA-III + tabu budget), so a tight ``deadline_ms`` ships the
    best pooled incumbent found so far rather than blocking the cycle.
    Returns the candidate plan plus the hypervolume of the incumbent
    allocation's objective point (``hv_before``) and the candidate's
    (``hv_after``) under a shared reference point, so the caller can
    enforce improve-or-preserve.
    """
    allocator = PortfolioAllocator(
        config=config, members=members, deadline_ms=deadline_ms
    )
    shadow = TimeWindowScheduler(
        infrastructure=infrastructure,
        allocator=allocator,
        window_length=float(payload["window_length"]),
    )
    try:
        shadow.load_state_dict(payload)
        tenants = shadow.state.tenants()
        if not tenants:
            return {"feasible": False, "reason": "empty", "tenants": 0}

        # Incumbent objective point: the current allocation scored with
        # itself as X^t, so its migration term is zero by construction.
        requests = [shadow.request_for(key) for key in tenants]
        merged, _ = Request.concatenate(requests)
        previous = np.concatenate(
            [shadow.state.previous_assignment(key) for key in tenants]
        )
        compiled = allocator.compile_problem(infrastructure, merged)
        evaluator = compiled.evaluator(previous_assignment=previous)
        before = evaluator.evaluate(previous).as_array()

        result = shadow.reoptimize()
        outcome, plan = result
        after = np.asarray(outcome.objectives, dtype=np.float64)
        feasible = bool(outcome.accepted.all()) and outcome.violations == 0

        # Dominated-hypervolume comparison of the two single points
        # under a shared reference: hv(point) = prod(ref - point), so
        # hv_after >= hv_before iff the candidate is at least as good
        # volume-wise once its migration cost is priced in.
        reference = reference_point(np.stack([before, after]), margin=1.0)
        hv_before = hypervolume(before[np.newaxis, :], reference)
        hv_after = hypervolume(after[np.newaxis, :], reference)

        assignments = None
        if feasible:
            assignments = {}
            offset = 0
            for key, request in zip(tenants, requests):
                block = outcome.assignment[offset : offset + request.n]
                offset += request.n
                assignments[key] = [int(g) for g in block]
        return {
            "feasible": feasible,
            "tenants": len(tenants),
            "assignments": assignments,
            "hv_before": float(hv_before),
            "hv_after": float(hv_after),
            "moves": int(plan.size),
            "evaluations": int(outcome.evaluations),
            "algorithm": outcome.algorithm,
        }
    finally:
        # The shadow scheduler owns the portfolio (and its member
        # allocators' shared worker pool): closing it here is what
        # keeps a crashing cycle from leaking the pool.
        shadow.close()


class Reoptimizer:
    """Periodic (or on-demand) background reoptimization loop."""

    def __init__(
        self,
        state: ServiceState,
        config: NSGAConfig | None = None,
        every: float = 30.0,
        members: str = DEFAULT_MEMBERS,
        deadline_ms: float | None = None,
    ) -> None:
        self.state = state
        self.config = config or NSGAConfig(
            population_size=20, max_evaluations=600, seed=state.seed
        )
        self.every = float(every)
        self.members = members
        self.deadline_ms = deadline_ms
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="reoptimizer"
        )
        self._wake = asyncio.Event()
        self._stopping = False
        self._lock = asyncio.Lock()
        self.cycles: list[ReoptimizeCycle] = []

    # ------------------------------------------------------------------
    async def run(self) -> None:
        """The background task: cycle every ``every`` seconds."""
        while not self._stopping:
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=self.every)
            except asyncio.TimeoutError:
                pass
            self._wake.clear()
            if self._stopping:
                break
            try:
                await self.run_cycle()
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - loop must survive a bad cycle
                get_registry().count("service.reoptimize.errors")

    async def stop(self) -> None:
        """Stop the loop and release the worker thread."""
        self._stopping = True
        self._wake.set()
        self._executor.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------
    async def run_cycle(self) -> ReoptimizeCycle | None:
        """One snapshot → shadow solve → publish pass.

        Returns ``None`` when the platform is empty (nothing to do).
        Concurrent calls serialize on an internal lock, so an API
        ``POST /reoptimize`` cannot overlap the periodic loop.
        """
        async with self._lock:
            registry = get_registry()
            if self.state.tenant_count() == 0:
                return None
            started = time.perf_counter()
            payload, epoch = self.state.snapshot()
            registry.count("service.reoptimize.cycles")
            with span("service.reoptimize.cycle", epoch=epoch):
                loop = asyncio.get_running_loop()
                result = await loop.run_in_executor(
                    self._executor,
                    shadow_reoptimize,
                    self.state.infrastructure,
                    payload,
                    self.config,
                    self.members,
                    self.deadline_ms,
                )
            elapsed = time.perf_counter() - started
            registry.observe("service.reoptimize.seconds", elapsed)

            if not result["feasible"]:
                reason = result.get("reason", "infeasible")
                registry.count("service.reoptimize.discarded", reason=reason)
                cycle = ReoptimizeCycle(
                    index=len(self.cycles),
                    epoch=epoch,
                    tenants=result["tenants"],
                    applied=False,
                    reason=reason,
                    hv_before=result.get("hv_before", 0.0),
                    hv_after=result.get("hv_after", 0.0),
                    moves=result.get("moves", 0),
                    elapsed=elapsed,
                )
            elif result["hv_after"] < result["hv_before"]:
                registry.count(
                    "service.reoptimize.discarded", reason="non_improving"
                )
                cycle = ReoptimizeCycle(
                    index=len(self.cycles),
                    epoch=epoch,
                    tenants=result["tenants"],
                    applied=False,
                    reason="non_improving",
                    hv_before=result["hv_before"],
                    hv_after=result["hv_after"],
                    moves=result["moves"],
                    elapsed=elapsed,
                )
            else:
                applied = self.state.apply_reoptimization(
                    result["assignments"], epoch
                )
                cycle = ReoptimizeCycle(
                    index=len(self.cycles),
                    epoch=epoch,
                    tenants=result["tenants"],
                    applied=applied,
                    reason="applied" if applied else "stale",
                    hv_before=result["hv_before"],
                    hv_after=result["hv_after"],
                    moves=result["moves"],
                    elapsed=elapsed,
                )
            self.cycles.append(cycle)
            registry.gauge("service.reoptimize.last_hv_gain",
                           cycle.hv_after - cycle.hv_before)
            return cycle
