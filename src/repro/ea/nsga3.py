"""NSGA-III (Deb & Jain 2014; the paper cites the unified U-NSGA-III).

Mating selection is uniform-random (selection pressure lives in the
reference-point survival step); the partial last front is split by
niche-preserving association with the Das-Dennis reference directions.
"""

from __future__ import annotations

import numpy as np

from repro.ea.config import NSGAConfig
from repro.ea.constraint_handling import ConstraintHandler
from repro.ea.nsga_base import NSGABase
from repro.ea.operators.selection import binary_tournament, random_mating_pool
from repro.ea.population import Population
from repro.ea.reference_points import niching_for
from repro.types import FloatArray, IntArray

__all__ = ["NSGA3"]


class NSGA3(NSGABase):
    """The unmodified NSGA-III baseline (or constrained, per handler)."""

    algorithm_name = "nsga3"

    def __init__(
        self,
        config: NSGAConfig | None = None,
        handler: ConstraintHandler | None = None,
        track_history: bool = False,
    ) -> None:
        super().__init__(config=config, handler=handler, track_history=track_history)
        # The lattice spans Eq. 15's three objectives.  Memoized by
        # lattice shape: repeated runs (sweeps, windows) share one
        # lattice + niching operator instead of re-deriving.
        self.niching = niching_for(3, self.config.reference_point_divisions)

    def _select_parents(
        self,
        population: Population,
        effective_objectives: FloatArray,
        rng: np.random.Generator,
    ) -> IntArray:
        if self.handler.uses_feasibility_tiers:
            # Feasibility-aware tournament keeps repaired individuals in
            # the mating pool ahead of violators.
            tiers = np.where(
                population.violations == 0, 0, 1 + population.violations
            )
            ranks = np.zeros(len(population), dtype=np.int64)
            return binary_tournament(
                ranks,
                None,
                n_parents=self.config.population_size,
                tiers=tiers,
                seed=rng,
            )
        return random_mating_pool(
            len(population), self.config.population_size, seed=rng
        )

    def _split_last_front(
        self,
        effective_objectives: FloatArray,
        confirmed: IntArray,
        last_front: IntArray,
        n_select: int,
        rng: np.random.Generator,
    ) -> IntArray:
        return self.niching.select(
            effective_objectives,
            confirmed,
            last_front,
            n_select,
            seed=rng,
        )
