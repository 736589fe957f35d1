"""Evolution run outputs: final population, chosen solution, history."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ea.population import Population
from repro.types import IntArray
from repro.utils.pareto import pareto_front_indices

__all__ = ["GenerationStats", "EvolutionResult"]


@dataclass(frozen=True)
class GenerationStats:
    """Per-generation progress snapshot for convergence analysis."""

    generation: int
    evaluations: int
    best_aggregate: float
    mean_aggregate: float
    feasible_fraction: float
    min_violations: int


@dataclass
class EvolutionResult:
    """Outcome of one NSGA run.

    Attributes
    ----------
    population:
        Final evaluated population.
    evaluations:
        Genome evaluations consumed.
    elapsed:
        Wall-clock seconds.
    history:
        Per-generation statistics (empty if tracking was disabled).
    algorithm:
        Human-readable algorithm label.
    resumed_from:
        Generation the run was restored from when it resumed a
        checkpoint, else ``None``.
    interrupted:
        True when the run stopped early on a graceful-shutdown request
        after flushing a checkpoint (the population is the state at the
        interruption boundary, not a finished run).
    """

    population: Population
    evaluations: int
    elapsed: float
    history: list[GenerationStats] = field(default_factory=list)
    algorithm: str = "nsga"
    resumed_from: int | None = None
    interrupted: bool = False

    # ------------------------------------------------------------------
    def pareto_front(self) -> Population:
        """Nondominated *feasible* individuals (all, if none feasible)."""
        pop = self.population
        feasible = np.flatnonzero(pop.feasible_mask)
        pool = feasible if feasible.size else np.arange(len(pop))
        front_local = pareto_front_indices(pop.objectives[pool])
        return pop.take(pool[front_local])

    def best_genome(self) -> IntArray:
        """The paper's single-solution pick: feasible individual closest
        to the normalized ideal point, else the least-violating one."""
        idx = self.population.best_feasible_index()
        if idx is None:
            idx = self.population.least_violating_index()
        return self.population.genomes[idx].copy()

    def best_violations(self) -> int:
        """Violations of :meth:`best_genome` (0 when a feasible one exists)."""
        idx = self.population.best_feasible_index()
        if idx is None:
            idx = self.population.least_violating_index()
        return int(self.population.violations[idx])
