"""CPSolver: the user-facing constraint-programming facade.

Mirrors how the paper drives Choco: feed it the matrix model, ask for
either any feasible placement or the cost-minimal one, and accept that
the search is complete but exponential.  The solver also doubles as
the repair engine of the "NSGA-III with constraint solver" baseline:
:meth:`CPSolver.repair_population` re-solves each infeasible genome
while pinning as many genes as possible to their current values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cp.search import CPSearch, SearchLimits, SearchStats
from repro.engine.compiled import CompiledProblem
from repro.errors import ValidationError
from repro.telemetry import RepairInvoked, get_bus, get_registry
from repro.types import FloatArray, IntArray

__all__ = ["CPSolution", "CPSolver"]


@dataclass(frozen=True)
class CPSolution:
    """Result of one CP solve.

    ``assignment`` is None when no placement was found; ``proved``
    tells whether that is a proof of infeasibility (search exhausted)
    or merely budget exhaustion.
    """

    assignment: IntArray | None
    cost: float
    stats: SearchStats

    @property
    def found(self) -> bool:
        """Whether a feasible placement was produced."""
        return self.assignment is not None

    @property
    def proved(self) -> bool:
        """Whether the search ran to completion (no budget abort)."""
        return self.stats.exhausted


class CPSolver:
    """Complete solver for one compiled instance.

    Parameters
    ----------
    compiled:
        The :class:`~repro.engine.CompiledProblem` of the instance,
        shared with every :class:`CPSearch` this solver spawns.
    base_usage:
        Committed usage from earlier windows.
    limits:
        Node/time budget per solve call.
    """

    def __init__(
        self,
        compiled: CompiledProblem,
        base_usage: FloatArray | None = None,
        limits: SearchLimits | None = None,
    ) -> None:
        self.compiled = compiled
        self.base_usage = base_usage
        self.limits = limits or SearchLimits()

    def _search(self) -> CPSearch:
        return CPSearch(self.compiled, base_usage=self.base_usage, limits=self.limits)

    # ------------------------------------------------------------------
    def find_feasible(self) -> CPSolution:
        """First feasible placement (or proof of infeasibility)."""
        search = self._search()
        assignment, cost = search.solve(find_all_improving=False)
        return CPSolution(assignment=assignment, cost=cost, stats=search.stats)

    def optimize(self) -> CPSolution:
        """Cost-minimal placement via branch & bound."""
        search = self._search()
        assignment, cost = search.solve(find_all_improving=True)
        return CPSolution(assignment=assignment, cost=cost, stats=search.stats)

    # ------------------------------------------------------------------
    def repair_genome(self, assignment: IntArray) -> IntArray:
        """CP-based repair: keep the genome where it is consistent,
        re-solve the rest.

        Strategy: seed the search's value order so each VM tries its
        current server first, then run a feasibility search.  If the
        search fails (or the budget dies), the genome is returned
        unchanged — matching the paper's observation that the CP-repair
        variant "remains too weak to repair genes".
        """
        assignment = np.asarray(assignment, dtype=np.int64)
        n = self.compiled.n
        if assignment.shape != (n,):
            raise ValidationError(f"genome shape {assignment.shape}, expected ({n},)")

        search = self._search()

        original_order = search._ordered_candidates

        def seeded_order(domains, vm):  # type: ignore[no-untyped-def]
            candidates = original_order(domains, vm)
            current = int(assignment[vm])
            if current in candidates:
                rest = candidates[candidates != current]
                return np.concatenate(([current], rest))
            return candidates

        search._ordered_candidates = seeded_order  # type: ignore[method-assign]
        solved, _cost = search.solve(find_all_improving=False)
        moves = (
            0 if solved is None else int(np.count_nonzero(solved != assignment))
        )
        get_registry().count("cp.repair.individuals", repairer="cp")
        get_registry().count("cp.repair.moves", moves, repairer="cp")
        bus = get_bus()
        if bus.enabled:
            bus.emit(
                RepairInvoked(
                    repairer="cp", moves=moves, repaired=solved is not None
                )
            )
        return assignment.copy() if solved is None else solved

    def repair_population(self, population: IntArray) -> IntArray:
        """Repair hook compatible with
        :class:`~repro.ea.constraint_handling.RepairHandling`."""
        population = np.asarray(population, dtype=np.int64)
        if population.ndim == 1:
            return self.repair_genome(population)
        constraints = self.compiled.constraint_set(
            base_usage=self.base_usage, include_assignment=False
        )
        feasible = constraints.batch_feasible(population)
        if feasible.all():
            return population
        repaired = population.copy()
        for i in np.flatnonzero(~feasible):
            repaired[i] = self.repair_genome(population[i])
        return repaired
