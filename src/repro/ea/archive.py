"""External nondominated archive.

NSGA's population is a moving sample; an *archive* accumulates every
nondominated feasible solution ever evaluated, so the final Pareto
front offered to the decision maker is not limited to the last
generation.  The paper selects a single solution by ideal-point
distance; the archive preserves the whole frontier that selection is
made from — useful for the operator dashboards the examples simulate
and for measuring convergence (hypervolume over time).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.objectives.preference import active_preference, select_index
from repro.types import FloatArray, IntArray

__all__ = ["ParetoArchive"]


class ParetoArchive:
    """Bounded archive of mutually nondominated (genome, objectives).

    Parameters
    ----------
    capacity:
        Maximum solutions retained.  When full, the entrant only
        displaces the archived solution *most crowded* in objective
        space (largest inverse-nearest-neighbour density), keeping the
        archive spread.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._genomes: list[np.ndarray] = []
        self._objectives: list[np.ndarray] = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._genomes)

    @property
    def genomes(self) -> IntArray:
        """(size, n) matrix of archived genomes (copy)."""
        if not self._genomes:
            return np.empty((0, 0), dtype=np.int64)
        return np.stack(self._genomes)

    @property
    def objectives(self) -> FloatArray:
        """(size, k) matrix of archived objective vectors (copy)."""
        if not self._objectives:
            return np.empty((0, 0))
        return np.stack(self._objectives)

    # ------------------------------------------------------------------
    def add(self, genome: IntArray, objectives: FloatArray) -> bool:
        """Offer one solution; returns True if it entered the archive.

        Entrants dominated by (or duplicating) an archived solution are
        refused; archived solutions dominated by the entrant are
        evicted.
        """
        genome = np.asarray(genome, dtype=np.int64).copy()
        objectives = np.asarray(objectives, dtype=np.float64).copy()
        if objectives.ndim != 1:
            raise ValidationError("objectives must be a 1-D vector")

        keep: list[int] = []
        for i, archived in enumerate(self._objectives):
            if np.all(archived <= objectives) and (
                np.any(archived < objectives) or np.array_equal(archived, objectives)
            ):
                return False  # dominated or duplicate
            if not (np.all(objectives <= archived) and np.any(objectives < archived)):
                keep.append(i)
        self._genomes = [self._genomes[i] for i in keep]
        self._objectives = [self._objectives[i] for i in keep]

        self._genomes.append(genome)
        self._objectives.append(objectives)
        if len(self._genomes) > self.capacity:
            self._evict_most_crowded()
        return True

    def add_population(self, genomes: IntArray, objectives: FloatArray) -> int:
        """Offer a whole population; returns how many entered."""
        genomes = np.asarray(genomes)
        objectives = np.asarray(objectives)
        if genomes.shape[0] != objectives.shape[0]:
            raise ValidationError("genome/objective row counts differ")
        return sum(
            self.add(genomes[i], objectives[i]) for i in range(genomes.shape[0])
        )

    # ------------------------------------------------------------------
    def _evict_most_crowded(self) -> None:
        objs = np.stack(self._objectives)
        lo = objs.min(axis=0)
        span = np.where(objs.max(axis=0) - lo > 0, objs.max(axis=0) - lo, 1.0)
        normalized = (objs - lo) / span
        # Nearest-neighbour distance per point; the smallest is densest.
        diff = normalized[:, None, :] - normalized[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        nearest = dist.min(axis=1)
        victim = int(np.argmin(nearest))
        del self._genomes[victim]
        del self._objectives[victim]

    # ------------------------------------------------------------------
    def best(self) -> tuple[IntArray, FloatArray] | None:
        """The deployed-solution pick over the archive
        (:func:`~repro.objectives.preference.select_index` under the
        active order), or None when the archive is empty."""
        if not self._genomes:
            return None
        index = select_index(self.objectives, active_preference())
        return self._genomes[index].copy(), self._objectives[index].copy()
