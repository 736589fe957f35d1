"""Abstract constraint interface.

Genomes are integer vectors of length n with values in ``[0, m)`` or
:data:`~repro.model.placement.UNPLACED`.  Violation counts are integers
(>= 0); a genome is feasible for a constraint iff its count is zero.
Each constraint has one body, :meth:`Constraint.batch_violations` over
a population matrix; one genome is scored as row 0 of a batch of one.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.types import IntArray

__all__ = ["Constraint"]


class Constraint(abc.ABC):
    """One hard constraint of the allocation model."""

    #: Short machine-readable identifier used in breakdown reports.
    name: str = "constraint"

    @abc.abstractmethod
    def batch_violations(self, population: IntArray) -> IntArray:
        """Violation count per row of ``population`` (shape (pop, n))."""

    def violations(self, assignment: IntArray) -> int:
        """Number of violations in one genome (0 means satisfied)."""
        return int(self.batch_violations(np.asarray(assignment)[None, :])[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
