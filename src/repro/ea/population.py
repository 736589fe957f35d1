"""Population container: genomes plus their evaluation results.

A population is a struct-of-arrays — genome matrix (pop, n), objective
matrix (pop, 3), violation vector (pop,) — kept consistent by
construction.  The EA loop concatenates, slices and re-orders these
arrays wholesale; nothing iterates individuals in Python.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.objectives.preference import active_preference, select_index
from repro.types import FloatArray, IntArray

__all__ = ["Population"]


@dataclass
class Population:
    """Evaluated individuals.

    Attributes
    ----------
    genomes:
        (pop, n) int matrix of server ids.
    objectives:
        (pop, k) float objective matrix (minimization).
    violations:
        (pop,) int total constraint violations.
    """

    genomes: IntArray
    objectives: FloatArray
    violations: IntArray

    def __post_init__(self) -> None:
        self.genomes = np.ascontiguousarray(self.genomes, dtype=np.int64)
        self.objectives = np.ascontiguousarray(self.objectives, dtype=np.float64)
        self.violations = np.ascontiguousarray(self.violations, dtype=np.int64)
        if self.genomes.ndim != 2 or self.objectives.ndim != 2:
            raise ValidationError("genomes and objectives must be 2-D")
        pop = self.genomes.shape[0]
        if self.objectives.shape[0] != pop or self.violations.shape != (pop,):
            raise ValidationError(
                f"inconsistent population sizes: genomes {self.genomes.shape}, "
                f"objectives {self.objectives.shape}, "
                f"violations {self.violations.shape}"
            )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.genomes.shape[0]

    @property
    def n_objectives(self) -> int:
        """Number of objective columns."""
        return self.objectives.shape[1]

    @property
    def feasible_mask(self) -> np.ndarray:
        """Individuals with zero violations."""
        return self.violations == 0

    def take(self, indices: IntArray) -> "Population":
        """Sub-population at ``indices`` (fancy indexing copies)."""
        idx = np.asarray(indices, dtype=np.int64)
        return Population(
            genomes=self.genomes[idx],
            objectives=self.objectives[idx],
            violations=self.violations[idx],
        )

    @staticmethod
    def concatenate(a: "Population", b: "Population") -> "Population":
        """Stack two populations (parents + offspring merge step)."""
        if a.genomes.shape[1] != b.genomes.shape[1]:
            raise ValidationError("genome lengths differ")
        if a.n_objectives != b.n_objectives:
            raise ValidationError("objective counts differ")
        return Population(
            genomes=np.vstack([a.genomes, b.genomes]),
            objectives=np.vstack([a.objectives, b.objectives]),
            violations=np.concatenate([a.violations, b.violations]),
        )

    def best_feasible_index(self) -> int | None:
        """Index of the deployed-solution pick among feasible individuals
        (:func:`~repro.objectives.preference.select_index` under the
        active order), or None when no individual is feasible."""
        feasible = np.flatnonzero(self.feasible_mask)
        if feasible.size == 0:
            return None
        return int(feasible[select_index(self.objectives[feasible], active_preference())])

    def least_violating_index(self) -> int:
        """Index with the fewest violations (ties → better aggregate cost)."""
        order = np.lexsort((self.objectives.sum(axis=1), self.violations))
        return int(order[0])
