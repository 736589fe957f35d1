"""Migration (reconfiguration) cost — the third term of Z (Eq. 26).

The reconfiguration-plan size is estimated from the difference between
the current allocation X^t and the candidate X^{t+1}: every resource
whose host changes pays its migration charge M_k::

    cost = sum_k M_k * [X^{t+1}_k != X^t_k]

For a request not yet hosted anywhere (first placement) there is no
X^t and the objective is identically zero — matching the paper, where
migration cost only matters across optimization cycles.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionError
from repro.model.placement import UNPLACED
from repro.model.request import Request
from repro.types import FloatArray, IntArray

__all__ = ["MigrationCost"]


class MigrationCost:
    """Vectorized Eq. 26 evaluator.

    Parameters
    ----------
    request:
        Supplies the migration charge vector M (shape (n,)).
    previous_assignment:
        X^t as a flat genome, or None when the request is new.
        :data:`UNPLACED` entries in X^t mean "was not hosted": placing
        such a resource is a fresh boot, not a migration, and costs
        nothing.
    """

    name = "migration_cost"

    def __init__(
        self, request: Request, previous_assignment: IntArray | None = None
    ) -> None:
        self.request = request
        if previous_assignment is not None:
            previous_assignment = np.ascontiguousarray(
                previous_assignment, dtype=np.int64
            )
            if previous_assignment.shape != (request.n,):
                raise DimensionError(
                    f"previous assignment shape {previous_assignment.shape}, "
                    f"expected ({request.n},)"
                )
        self.previous_assignment = previous_assignment

    def batch(self, population: IntArray) -> FloatArray:
        """Migration cost per individual (pop,)."""
        population = np.asarray(population, dtype=np.int64)
        pop = population.shape[0]
        if self.previous_assignment is None:
            return np.zeros(pop)
        prev = self.previous_assignment
        moved = (population != prev[None, :]) & (prev[None, :] != UNPLACED)
        return moved @ self.request.migration_cost
