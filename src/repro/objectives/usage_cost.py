"""Usage and operating cost — the first term of Z (Eq. 22).

Reading Eq. 22 literally, every hosted consumer resource k on server j
contributes the server's exploitation cost E_j plus its usage cost U_j::

    cost(X) = sum_k hosted on j  (E_j + U_j)

An alternative accounting — E_j paid once per *activated* (non-empty)
server, the consolidation view — is offered behind
``per_server_operating=True`` because it is what energy-oriented work
in the related-work section optimizes; the default follows the paper's
equation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionError
from repro.model.infrastructure import Infrastructure
from repro.model.placement import UNPLACED
from repro.types import FloatArray, IntArray

__all__ = ["UsageOperatingCost"]


class UsageOperatingCost:
    """Vectorized Eq. 22 evaluator.

    Parameters
    ----------
    infrastructure:
        Supplies the E and U cost vectors.
    per_server_operating:
        When True, E_j is charged once per non-empty server instead of
        once per hosted resource.
    """

    name = "usage_and_operating_cost"

    def __init__(
        self, infrastructure: Infrastructure, per_server_operating: bool = False
    ) -> None:
        self.infrastructure = infrastructure
        self.per_server_operating = bool(per_server_operating)
        #: E_j + U_j per server — the per-resource charge of Eq. 22.
        self._per_resource_rate: FloatArray = (
            infrastructure.operating_cost + infrastructure.usage_cost
        )

    def value(self, assignment: IntArray) -> float:
        """Cost of one genome: row 0 of :meth:`batch` on a batch of one."""
        return float(self.batch(np.asarray(assignment)[None, :])[0])

    def batch(self, population: IntArray) -> FloatArray:
        """Cost per individual for a population matrix (pop, n)."""
        population = np.asarray(population, dtype=np.int64)
        if population.ndim != 2:
            raise DimensionError(
                f"population must be 2-D, got shape {population.shape}"
            )
        m = self.infrastructure.m
        mask = population != UNPLACED
        if not self.per_server_operating:
            # An UNPLACED (-1) gene reads the last server's rate; it is
            # zeroed before the per-row sum.
            rates = self._per_resource_rate[population]
            if not mask.all():
                rates[~mask] = 0.0
            return rates.sum(axis=1)
        usage_rates = np.where(
            mask, self.infrastructure.usage_cost[np.where(mask, population, 0)], 0.0
        )
        usage = usage_rates.sum(axis=1)
        pop = population.shape[0]
        servers = np.where(mask, population, m)
        flat = (np.arange(pop)[:, None] * (m + 1) + servers).ravel()
        counts = np.bincount(flat, minlength=pop * (m + 1)).reshape(pop, m + 1)[:, :m]
        operating = (counts > 0) @ self.infrastructure.operating_cost
        return usage + operating
