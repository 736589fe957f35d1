"""Provider-scoped capacity for multi-cloud brokered placements.

:class:`ProviderQuotaConstraint` caps the resources (VM count) a
brokered plan may consume per provider — the contractual commitment a
broker holds with each provider, distinct from physical server
capacity.  The broker's other market rule, QoS co-location (each
request inside one provider), is counted by
:class:`~repro.market.broker.BrokeredAllocator` itself: distinct
providers beyond the first are violations.

The quota is a plain :class:`~repro.constraints.base.Constraint` the
broker (and anyone else) scores alongside an instance's
:class:`~repro.constraints.registry.ConstraintSet`; it deliberately
does **not** extend :class:`~repro.types.PlacementRule`, so the paper's
four-rule kernel/CP/tabu dispatch paths stay untouched and the
single-provider pipeline remains byte-identical.
"""

from __future__ import annotations

import numpy as np

from repro.constraints.base import Constraint
from repro.errors import ConstraintError
from repro.model.placement import UNPLACED
from repro.types import IntArray

__all__ = ["ProviderQuotaConstraint"]


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

    def batch_violations(self, population: IntArray) -> IntArray:
        """VMs placed beyond each capped provider's quota, per row."""
        population = np.asarray(population, dtype=np.int64)
        pop = population.shape[0]
        p = self._quotas.shape[0]
        placed = population != UNPLACED
        providers = self._provider[np.where(placed, population, 0)]
        cells = (np.arange(pop)[:, None] * p + providers)[placed]
        counts = np.bincount(cells, minlength=pop * p).reshape(pop, p)
        capped = self._quotas >= 0
        excess = np.maximum(counts[:, capped] - self._quotas[capped], 0)
        return excess.sum(axis=1).astype(np.int64)
