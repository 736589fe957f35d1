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

    def best_feasible_index(self, preference=None) -> int | None:
        """Index of the deployed-solution pick among feasible individuals.

        Routed through the preference layer: with a
        :class:`~repro.market.preferences.PreferenceOrder` (explicit,
        or the process-wide active one when ``preference`` is ``None``),
        the ceteris-paribus selection; otherwise the paper's
        final-solution pick — normalize each objective over the
        feasible set, then take the minimum Euclidean distance to the
        component-wise minimum ("the ideal point where cost and
        rejection rate are the next to naught").  Returns None when no
        individual is feasible.
        """
        feasible = np.flatnonzero(self.feasible_mask)
        if feasible.size == 0:
            return None
        from repro.market.preferences import active_preference

        preference = preference if preference is not None else active_preference()
        objs = self.objectives[feasible]
        if preference is not None:
            return int(feasible[preference.select(objs)])
        lo = objs.min(axis=0)
        span = objs.max(axis=0) - lo
        span = np.where(span > 0, span, 1.0)
        normalized = (objs - lo) / span
        distances = np.sqrt((normalized**2).sum(axis=1))
        return int(feasible[np.argmin(distances)])

    def least_violating_index(self) -> int:
        """Index with the fewest violations (ties → better aggregate cost)."""
        order = np.lexsort((self.objectives.sum(axis=1), self.violations))
        return int(order[0])
