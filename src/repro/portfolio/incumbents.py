"""Shared incumbent pool for the allocator portfolio.

The portfolio races heterogeneous members — population EAs, a
single-solution tabu walk, a sequential exact CP solve — and the pool
is where their progress meets: a :class:`~repro.ea.archive.ParetoArchive`
of *proven* placements that any member may read at exchange epochs (EA
populations inject it, the tabu walk reseeds from it).

Only fully-placed, violation-free solutions are admitted.  That rule is
what makes the pool's objective vectors comparable across members:
objective values do not depend on which constraint binding a member
evaluated under (assignment constraint on or off), whereas a partially
placed genome would score differently per member.  Rejection is not a
loss — an infeasible "incumbent" is useless to seed an exact method or
to report to a consumer anyway.
"""

from __future__ import annotations

import numpy as np

from repro.ea.archive import ParetoArchive
from repro.model.placement import UNPLACED
from repro.telemetry import get_registry
from repro.types import FloatArray, IntArray

__all__ = ["IncumbentPool"]


class IncumbentPool:
    """Bounded Pareto archive shared by portfolio members.

    Parameters
    ----------
    capacity:
        Maximum incumbents retained (crowding-based eviction beyond it,
        see :class:`~repro.ea.archive.ParetoArchive`).
    """

    def __init__(self, capacity: int = 128) -> None:
        self.archive = ParetoArchive(capacity=capacity)
        self.offers = 0
        self.accepted = 0

    def __len__(self) -> int:
        return len(self.archive)

    # ------------------------------------------------------------------
    def offer(
        self,
        genomes: IntArray,
        objectives: FloatArray,
        violations: IntArray | None = None,
        source: str = "",
    ) -> int:
        """Offer solutions; returns how many entered the archive.

        Rows with any unplaced gene, or a nonzero entry in
        ``violations`` (when given), are silently refused — the pool
        trades only in complete feasible placements.  Deterministic:
        rows are considered in order, no RNG.
        """
        genomes = np.asarray(genomes, dtype=np.int64)
        if genomes.size == 0:
            return 0
        if genomes.ndim == 1:
            genomes = genomes[None, :]
        objectives = np.asarray(objectives, dtype=np.float64)
        if objectives.ndim == 1:
            objectives = objectives[None, :]
        if violations is not None:
            violations = np.atleast_1d(np.asarray(violations, dtype=np.int64))

        entered = 0
        for i in range(genomes.shape[0]):
            self.offers += 1
            if np.any(genomes[i] == UNPLACED):
                continue
            if violations is not None and violations[i] != 0:
                continue
            if self.archive.add(genomes[i], objectives[i]):
                entered += 1
        self.accepted += entered
        registry = get_registry()
        registry.count("portfolio.pool.offers", genomes.shape[0], source=source)
        if entered:
            registry.count("portfolio.pool.accepted", entered, source=source)
        registry.gauge("portfolio.pool.size", len(self.archive))
        return entered

    # ------------------------------------------------------------------
    def front(self) -> tuple[IntArray, FloatArray]:
        """(genomes, objectives) of the pooled nondominated set."""
        return self.archive.genomes, self.archive.objectives

    def best(self) -> tuple[IntArray, FloatArray] | None:
        """The single-solution pick over the pool, or ``None`` (see
        :meth:`~repro.ea.archive.ParetoArchive.best`)."""
        return self.archive.best()

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-able snapshot (for the portfolio's composite checkpoint)."""
        return {
            "capacity": self.archive.capacity,
            "genomes": [g.tolist() for g in self.archive._genomes],
            "objectives": [o.tolist() for o in self.archive._objectives],
            "offers": self.offers,
            "accepted": self.accepted,
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot byte-identically.

        Entries are reloaded verbatim (not re-offered): the archive's
        insertion order is part of its deterministic identity.
        """
        self.archive = ParetoArchive(capacity=int(payload["capacity"]))
        self.archive._genomes = [
            np.asarray(g, dtype=np.int64) for g in payload["genomes"]
        ]
        self.archive._objectives = [
            np.asarray(o, dtype=np.float64) for o in payload["objectives"]
        ]
        self.offers = int(payload["offers"])
        self.accepted = int(payload["accepted"])
