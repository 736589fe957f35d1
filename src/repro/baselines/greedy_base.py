"""Scaffolding shared by the greedy baseline allocators.

A greedy allocator walks the window request by request.  For each
request it places resources one at a time — affinity-group members
first, so co-location decisions are made while the most freedom remains
— using the subclass's candidate ordering.  Capacity and the request's
own placement rules are enforced by the two validity primitives the
tabu repair's ``findNeighbor`` runs
(:meth:`~repro.tabu.neighborhood.NeighborFinder.fits` and
:meth:`~repro.tabu.neighborhood.NeighborFinder.apply_rules`), over a
residual kept row by row as the repair walk keeps its own.  If any
resource cannot be placed the whole request rolls back and is rejected;
accepted requests commit their usage before the next request is tried.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.allocator import Allocator, BatchOutcome
from repro.engine.compiled import CompiledProblem
from repro.model.infrastructure import Infrastructure
from repro.model.placement import UNPLACED
from repro.model.request import Request
from repro.tabu.neighborhood import NeighborFinder
from repro.types import FloatArray, IntArray
from repro.utils.timers import Stopwatch

__all__ = ["GreedyAllocator"]


class GreedyAllocator(Allocator):
    """Template for request-sequential, never-violating allocators."""

    @abc.abstractmethod
    def _candidate_order(
        self,
        compiled: CompiledProblem,
        residual: FloatArray,
        demand: FloatArray,
        valid: np.ndarray,
    ) -> IntArray:
        """Order the valid servers for one resource placement.

        ``residual`` is the (m, h) capacity still free on each server
        and ``valid`` the boolean mask of servers passing capacity and
        affinity; implementations return indices (a permutation of
        ``np.flatnonzero(valid)`` — the first entry is used).
        """

    def _placement_order(self, request: Request) -> IntArray:
        """Resource visit order: group members first ("sorted by
        affinity"), then the rest in index order."""
        grouped: list[int] = []
        seen = set()
        for group in request.groups:
            for member in group.members:
                if member not in seen:
                    grouped.append(member)
                    seen.add(member)
        rest = [k for k in range(request.n) if k not in seen]
        return np.asarray(grouped + rest, dtype=np.int64)

    # ------------------------------------------------------------------
    def allocate(
        self,
        infrastructure: Infrastructure,
        requests: Sequence[Request],
        base_usage: FloatArray | None = None,
        previous_assignment: IntArray | None = None,
    ) -> BatchOutcome:
        """Greedily place every request; see :meth:`Allocator.allocate`."""
        merged, owner = self.merge_requests(requests)
        stopwatch = Stopwatch().start()

        compiled = self.compile_problem(infrastructure, merged)
        finder = NeighborFinder(compiled)
        # The *running* usage: base + committed requests + the current
        # request's partial placement.  The residual ``limit - usage``
        # the primitives read is refreshed only on the rows a placement
        # or a roll-back touches, ``limit[j] - usage[j]`` as in the
        # repair walk.
        usage = (
            np.zeros((infrastructure.m, infrastructure.h))
            if base_usage is None
            else np.asarray(base_usage, dtype=np.float64).copy()
        )
        limit = finder.limit
        residual = limit - usage

        assignment = np.full(merged.n, UNPLACED, dtype=np.int64)
        offset = 0
        for request in requests:
            indices = offset + self._placement_order(request)
            placed: list[tuple[int, int]] = []
            success = True
            for k in indices.tolist():
                demand = merged.demand[k]
                valid = finder.apply_rules(finder.fits(residual, k), assignment, k)
                if not valid.any():
                    success = False
                    break
                order = self._candidate_order(compiled, residual, demand, valid)
                server = int(order[0])
                assignment[k] = server
                usage[server] += demand
                residual[server] = limit[server] - usage[server]
                placed.append((k, server))
            if not success:
                for k, server in placed:  # roll the request back
                    usage[server] -= merged.demand[k]
                    residual[server] = limit[server] - usage[server]
                    assignment[k] = UNPLACED
            offset += request.n

        stopwatch.stop()
        return self.finalize(
            compiled,
            owner,
            assignment,
            elapsed=stopwatch.elapsed,
            base_usage=base_usage,
            previous_assignment=previous_assignment,
        )
