"""Constraint-programming allocator (the paper's "Constraint
Programming" bar in Figures 7-11).

Requests are solved sequentially: each one gets a complete CP search
against the residual capacity left by its predecessors, and is rejected
when that search proves infeasible (or exhausts its budget — the
scaling failure Figure 8 shows).  Accepted placements are optimal in
usage/operating cost when ``optimize=True``, or first-feasible when
speed matters.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.allocator import Allocator, AnytimeRun
from repro.cp.search import SearchLimits
from repro.cp.solver import CPSolver
from repro.model.infrastructure import Infrastructure
from repro.model.placement import UNPLACED
from repro.model.request import Request
from repro.types import AlgorithmKind, FloatArray, IntArray
from repro.utils.scatter import scatter_rows

__all__ = ["CPAllocator"]


class _CPAnytimeRun(AnytimeRun):
    """Request-granular anytime CP solve.

    One work unit = one request's complete search against the residual
    capacity, so the incumbent between steps is always a *consistent*
    partial batch: every request processed so far is either optimally
    placed or rejected, the rest are pending (UNPLACED, hence counted
    as rejections if the run is frozen now — the honest reading of an
    interrupted sequential solve).  A wall-clock deadline converts the
    still-pending tail into budget rejections, mirroring what the
    per-request ``SearchLimits`` budget does inside a single search.
    """

    def __init__(
        self,
        allocator: "CPAllocator",
        infrastructure: Infrastructure,
        requests: Sequence[Request],
        base_usage: FloatArray | None = None,
        previous_assignment: IntArray | None = None,
    ) -> None:
        merged, owner = Allocator.merge_requests(requests)
        super().__init__(
            allocator,
            infrastructure,
            merged,
            owner,
            base_usage=base_usage,
            previous_assignment=previous_assignment,
        )
        self._requests = list(requests)
        self._usage = (
            np.zeros((infrastructure.m, infrastructure.h))
            if base_usage is None
            else np.asarray(base_usage, dtype=np.float64).copy()
        )
        self._assignment = np.full(merged.n, UNPLACED, dtype=np.int64)
        self._next = 0
        self._offset = 0
        self._nodes = 0
        self._proved_rejections = 0
        self._budget_rejections = 0
        self._deadline: float | None = None

    def _solve_one(self) -> None:
        allocator: CPAllocator = self.allocator
        request = self._requests[self._next]
        limits = allocator.limits
        if self._deadline is not None:
            # Never let one request's search outlive the global clock:
            # its per-request time budget shrinks to the remaining wall
            # time (the node budget still applies unchanged).
            remaining = self._deadline - time.perf_counter()
            if remaining <= 0.0:
                self._reject_pending()
                return
            if limits.time_limit is None or limits.time_limit > remaining:
                limits = SearchLimits(
                    max_nodes=limits.max_nodes, time_limit=remaining
                )
        # Per-request compilation: cached across windows, so a
        # re-submitted or re-optimized request skips the group-index
        # and capacity precomputation entirely.
        solver = CPSolver(
            allocator.compile_problem(self.infrastructure, request),
            base_usage=self._usage,
            limits=limits,
        )
        solution = solver.optimize() if allocator.optimize else solver.find_feasible()
        self._nodes += solution.stats.nodes
        if solution.found:
            local = solution.assignment
            self._assignment[self._offset : self._offset + request.n] = local
            self._usage += scatter_rows(
                local, request.demand, self._usage.shape[0]
            )
        elif solution.proved:
            self._proved_rejections += 1
        else:
            self._budget_rejections += 1
        self._offset += request.n
        self._next += 1

    def _reject_pending(self) -> None:
        """Deadline hit: the unprocessed tail becomes budget rejections."""
        self._budget_rejections += len(self._requests) - self._next
        self._next = len(self._requests)

    def step(self, budget: int = 1) -> bool:
        for _ in range(int(budget)):
            if self._next >= len(self._requests):
                return False
            if (
                self._deadline is not None
                and time.perf_counter() >= self._deadline
            ):
                self._reject_pending()
                return False
            self._solve_one()
        return self._next < len(self._requests)

    def best_solution(self) -> IntArray:
        return self._assignment.copy()

    def set_deadline(self, deadline: float) -> None:
        self._deadline = float(deadline)

    def _extra(self) -> dict:
        return {
            "nodes": self._nodes,
            "proved_rejections": self._proved_rejections,
            "budget_rejections": self._budget_rejections,
        }

    # ------------------------------------------------------------------
    # Portfolio checkpoint plumbing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-able snapshot of the sequential solve's cursor state."""
        return {
            "next": self._next,
            "offset": self._offset,
            "assignment": self._assignment.tolist(),
            "usage": self._usage.tolist(),
            "nodes": self._nodes,
            "proved_rejections": self._proved_rejections,
            "budget_rejections": self._budget_rejections,
            "elapsed": self.stopwatch.elapsed,
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot byte-identically.

        The search itself is deterministic per request, so restoring
        the cursor plus the committed usage reproduces the remaining
        solve exactly."""
        from repro.utils.timers import Stopwatch

        self._next = int(payload["next"])
        self._offset = int(payload["offset"])
        self._assignment = np.asarray(payload["assignment"], dtype=np.int64)
        self._usage = np.asarray(payload["usage"], dtype=np.float64)
        self._nodes = int(payload["nodes"])
        self._proved_rejections = int(payload["proved_rejections"])
        self._budget_rejections = int(payload["budget_rejections"])
        self.stopwatch = Stopwatch(elapsed=float(payload["elapsed"])).start()


class CPAllocator(Allocator):
    """Sequential complete search per request.

    Parameters
    ----------
    optimize:
        Branch & bound for minimal cost per request (True) or first
        feasible placement (False).
    limits:
        Per-request search budget.
    """

    name = "constraint_programming"
    kind = AlgorithmKind.CONSTRAINT_PROGRAMMING

    def __init__(
        self,
        optimize: bool = True,
        limits: SearchLimits | None = None,
    ) -> None:
        self.optimize = bool(optimize)
        self.limits = limits or SearchLimits(max_nodes=50_000, time_limit=10.0)

    def start(
        self,
        infrastructure: Infrastructure,
        requests: Sequence[Request],
        base_usage: FloatArray | None = None,
        previous_assignment: IntArray | None = None,
    ) -> _CPAnytimeRun:
        """Begin a request-granular anytime solve; see :class:`AnytimeRun`."""
        return _CPAnytimeRun(
            self,
            infrastructure,
            requests,
            base_usage=base_usage,
            previous_assignment=previous_assignment,
        )
