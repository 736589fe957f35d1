"""Provider-scoped constraints for multi-cloud brokered placements.

Three market-layer rules on top of the paper's four placement rules
(which are provider-blind):

* :class:`SameProviderConstraint` — QoS co-location: every placed
  member of a group must land inside one provider's estate.  Chatty
  tiers (the MORPHOSYS-style latency contract) cannot straddle a
  cross-provider WAN link.
* :class:`ProviderSpreadConstraint` — availability separation: no two
  members of a group may share a provider, so a whole-provider outage
  cannot take the group down.
* :class:`ProviderQuotaConstraint` — provider-scoped capacity: a cap on
  the resources (VM count) a brokered plan may consume per provider —
  the contractual commitment a broker holds with each provider,
  distinct from physical server capacity.

These are plain :class:`~repro.constraints.base.Constraint` objects the
:class:`~repro.market.broker.BrokeredAllocator` (and anyone else)
scores alongside an instance's
:class:`~repro.constraints.registry.ConstraintSet`; they deliberately
do **not** extend :class:`~repro.types.PlacementRule`, so the paper's
four-rule kernel/CP/tabu dispatch paths stay untouched and the
single-provider pipeline remains byte-identical.
"""

from __future__ import annotations

import numpy as np

from repro.constraints.affinity import _GroupConstraint, _distinct_per_row
from repro.constraints.base import Constraint
from repro.errors import ConstraintError
from repro.model.placement import UNPLACED
from repro.types import IntArray

__all__ = [
    "SameProviderConstraint",
    "ProviderSpreadConstraint",
    "ProviderQuotaConstraint",
]


class SameProviderConstraint(_GroupConstraint):
    """QoS co-location: all placed group members inside one provider."""

    name = "same_provider"

    def __init__(self, members: tuple[int, ...], server_provider: IntArray) -> None:
        super().__init__(members)
        self._provider = np.asarray(server_provider, dtype=np.int64)

    def violations(self, assignment: IntArray) -> int:
        """Distinct providers hosting the placed members, minus one."""
        genes = self._member_genes(assignment)
        placed = genes[genes != UNPLACED]
        if placed.size <= 1:
            return 0
        return int(np.unique(self._provider[placed]).size - 1)

    def batch_violations(self, population: IntArray) -> IntArray:
        """:meth:`violations` of every row; one pass when all are placed."""
        population = np.asarray(population, dtype=np.int64)
        genes = population[:, self._idx]
        if np.any(genes == UNPLACED):
            return super().batch_violations(population)
        return (_distinct_per_row(self._provider[genes]) - 1).astype(np.int64)


class ProviderSpreadConstraint(_GroupConstraint):
    """Availability separation: no two group members share a provider."""

    name = "different_providers"

    def __init__(self, members: tuple[int, ...], server_provider: IntArray) -> None:
        super().__init__(members)
        self._provider = np.asarray(server_provider, dtype=np.int64)

    def violations(self, assignment: IntArray) -> int:
        """Placed members beyond the first on each provider."""
        genes = self._member_genes(assignment)
        placed = genes[genes != UNPLACED]
        if placed.size <= 1:
            return 0
        return int(placed.size - np.unique(self._provider[placed]).size)

    def batch_violations(self, population: IntArray) -> IntArray:
        """:meth:`violations` of every row; one pass when all are placed."""
        population = np.asarray(population, dtype=np.int64)
        genes = population[:, self._idx]
        if np.any(genes == UNPLACED):
            return super().batch_violations(population)
        distinct = _distinct_per_row(self._provider[genes])
        return (genes.shape[1] - distinct).astype(np.int64)


class ProviderQuotaConstraint(Constraint):
    """Provider-scoped capacity: at most ``quota[k]`` VMs per provider.

    Violations count the VMs placed beyond each provider's quota, so
    repair progress is visible one eviction at a time.  A negative
    quota entry means *unlimited* for that provider.
    """

    name = "provider_quota"

    def __init__(self, server_provider: IntArray, quotas) -> None:
        self._provider = np.asarray(server_provider, dtype=np.int64)
        self._quotas = np.asarray(quotas, dtype=np.int64)
        p = int(self._provider.max()) + 1 if self._provider.size else 0
        if self._quotas.ndim != 1 or self._quotas.shape[0] != p:
            raise ConstraintError(
                f"quota vector has shape {self._quotas.shape}, expected ({p},)"
            )

    def violations(self, assignment: IntArray) -> int:
        """VMs placed beyond each capped provider's quota."""
        assignment = np.asarray(assignment, dtype=np.int64)
        placed = assignment[assignment != UNPLACED]
        if placed.size == 0:
            return 0
        counts = np.bincount(
            self._provider[placed], minlength=self._quotas.shape[0]
        )
        capped = self._quotas >= 0
        excess = np.maximum(counts[capped] - self._quotas[capped], 0)
        return int(excess.sum())

    def batch_violations(self, population: IntArray) -> IntArray:
        """:meth:`violations` of every row, one row at a time."""
        population = np.asarray(population, dtype=np.int64)
        pop, _ = population.shape
        out = np.empty(pop, dtype=np.int64)
        for i in range(pop):
            out[i] = self.violations(population[i])
        return out
