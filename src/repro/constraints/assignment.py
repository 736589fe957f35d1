"""The allocation constraint, Eq. 5 / Eq. 17.

Every requested resource must be hosted exactly once.  In the flat
genome encoding multiplicity is impossible (a gene holds one server
id), so the only violation mode is an :data:`UNPLACED` gene; each one
counts as a violation.
"""

from __future__ import annotations

import numpy as np

from repro.constraints.base import Constraint
from repro.model.placement import UNPLACED
from repro.types import IntArray

__all__ = ["AssignmentConstraint"]


class AssignmentConstraint(Constraint):
    """Counts unplaced resources (Eq. 5 in genome form)."""

    name = "assignment"

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = int(n)

    def batch_violations(self, population: IntArray) -> IntArray:
        """Unassigned VMs (Eq. 5/17) per row of a population matrix."""
        population = np.asarray(population)
        if population.ndim != 2 or population.shape[1] != self.n:
            raise ValueError(
                f"population shape {population.shape}, expected (pop, {self.n})"
            )
        return np.count_nonzero(population == UNPLACED, axis=1).astype(np.int64)
