"""Backtracking search engine with MRV ordering and optional bounding.

The engine enumerates assignments depth-first.  At every node it picks
the undecided VM with the fewest remaining candidates (minimum
remaining values — fail-first), tries its candidate servers cheapest
E+U rate first, applies forward checking, and backtracks on wipe-out.  An optional cost bound turns the same machinery into the
branch-and-bound optimizer used by :class:`~repro.cp.solver.CPSolver`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.cp.domains import DomainStore
from repro.cp.propagation import initial_prune, propagate_assignment
from repro.engine.compiled import CompiledProblem
from repro.errors import ValidationError
from repro.telemetry import get_registry
from repro.types import FloatArray, IntArray

__all__ = ["SearchLimits", "SearchStats", "CPSearch"]


@dataclass(frozen=True)
class SearchLimits:
    """Exploration budget; exceeded limits abort the search cleanly."""

    max_nodes: int = 200_000
    time_limit: float | None = None

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValidationError("max_nodes must be >= 1")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValidationError("time_limit must be > 0 when set")


@dataclass
class SearchStats:
    """Counters for reporting and tests."""

    nodes: int = 0
    backtracks: int = 0
    solutions: int = 0
    exhausted: bool = False
    aborted: bool = False
    elapsed: float = 0.0


class CPSearch:
    """One search over one problem instance.

    Parameters
    ----------
    compiled:
        The :class:`~repro.engine.CompiledProblem` of the instance: its
        effective-capacity matrix, E+U rate vector and per-VM group
        index.
    base_usage:
        Committed usage (shrinks the free capacity).
    limits:
        Node/time budget.
    """

    def __init__(
        self,
        compiled: CompiledProblem,
        base_usage: FloatArray | None = None,
        limits: SearchLimits | None = None,
    ) -> None:
        self.compiled = compiled
        self.limits = limits or SearchLimits()
        effective = compiled.effective_capacity
        if base_usage is not None:
            free = effective - np.asarray(base_usage, dtype=np.float64)
        else:
            free = effective.copy()
        self.free_capacity = free
        self._rate = compiled.per_resource_rate
        self._member_groups = [list(ids) for ids in compiled.member_groups]
        self.stats = SearchStats()

    # ------------------------------------------------------------------
    def _ordered_candidates(self, domains: DomainStore, vm: int) -> IntArray:
        """``vm``'s candidate servers, cheapest E+U rate first (stable)."""
        candidates = domains.candidates(vm)
        if candidates.size <= 1:
            return candidates
        return candidates[np.argsort(self._rate[candidates], kind="stable")]

    def _select_vm(self, domains: DomainStore, assignment: IntArray) -> int:
        sizes = domains.domain_sizes()
        undecided = assignment < 0
        sizes = np.where(undecided, sizes, np.iinfo(np.int64).max)
        return int(np.argmin(sizes))

    # ------------------------------------------------------------------
    def solve(self, find_all_improving: bool = False) -> tuple[IntArray | None, float]:
        """Depth-first search.

        Parameters
        ----------
        find_all_improving:
            When True, keep searching after a solution for cheaper ones
            (full branch & bound, pruning each subtree whose optimistic
            cost reaches the incumbent); when False, return the first
            feasible placement.

        Returns
        -------
        ``(assignment, cost)`` of the best solution found (None if
        none); check ``stats.aborted`` to distinguish *proved
        infeasible* from *ran out of budget*.
        """
        infrastructure = self.compiled.infrastructure
        request = self.compiled.request
        n, m = request.n, infrastructure.m
        domains = DomainStore(n, m)
        start = time.perf_counter()
        self.stats = SearchStats()

        if not initial_prune(domains, infrastructure, request, self.free_capacity):
            self.stats.exhausted = True
            self.stats.elapsed = time.perf_counter() - start
            registry = get_registry()
            registry.count("cp.solves")
            registry.observe("cp.solve_seconds", self.stats.elapsed)
            return None, np.inf

        assignment = np.full(n, -1, dtype=np.int64)
        residual = self.free_capacity.copy()
        best: IntArray | None = None
        incumbent = np.inf

        # Optimistic completion bound: each undecided VM pays at least
        # the cheapest rate still in its domain.
        def lower_bound(partial_cost: float) -> float:
            undecided = np.flatnonzero(assignment < 0)
            if undecided.size == 0:
                return partial_cost
            mins = [
                self._rate[domains.candidates(int(k))].min()
                if domains.domain_size(int(k))
                else np.inf
                for k in undecided
            ]
            return partial_cost + float(np.sum(mins))

        def recurse(partial_cost: float) -> bool:
            """Returns True to abort the whole search (budget hit)."""
            nonlocal best, incumbent
            self.stats.nodes += 1
            if self.stats.nodes >= self.limits.max_nodes:
                self.stats.aborted = True
                return True
            if (
                self.limits.time_limit is not None
                and time.perf_counter() - start >= self.limits.time_limit
            ):
                self.stats.aborted = True
                return True

            if np.all(assignment >= 0):
                self.stats.solutions += 1
                if partial_cost < incumbent:
                    incumbent = partial_cost
                    best = assignment.copy()
                return not find_all_improving

            if np.isfinite(incumbent) and lower_bound(partial_cost) >= incumbent:
                return False  # pruned

            vm = self._select_vm(domains, assignment)
            candidates = self._ordered_candidates(domains, vm)
            demand = request.demand[vm]
            for server in candidates:
                server = int(server)
                if np.any(demand > residual[server] + 1e-9):
                    continue
                cost = partial_cost + float(self._rate[server])
                if np.isfinite(incumbent) and cost >= incumbent:
                    continue
                domains.push()
                assignment[vm] = server
                residual[server] -= demand
                ok = domains.assign(vm, server) and propagate_assignment(
                    domains,
                    infrastructure,
                    request,
                    self._member_groups,
                    assignment,
                    residual,
                    vm,
                    server,
                )
                if ok:
                    if recurse(cost):
                        return True
                    if best is not None and not find_all_improving:
                        # First solution requested and found: unwind.
                        residual[server] += demand
                        assignment[vm] = -1
                        domains.pop()
                        return False
                residual[server] += demand
                assignment[vm] = -1
                domains.pop()
                self.stats.backtracks += 1
            return False

        aborted = recurse(0.0)
        self.stats.exhausted = not aborted
        self.stats.elapsed = time.perf_counter() - start
        # Counters are recorded once per solve (never per node): the
        # propagation/backtrack hot path stays untouched.
        registry = get_registry()
        registry.count("cp.solves")
        registry.count("cp.nodes", self.stats.nodes)
        registry.count("cp.backtracks", self.stats.backtracks)
        registry.count("cp.solutions", self.stats.solutions)
        if self.stats.aborted:
            registry.count("cp.aborts")
        registry.observe("cp.solve_seconds", self.stats.elapsed)
        return best, (incumbent if best is not None else np.inf)
