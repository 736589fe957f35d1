"""Evolutionary algorithm layer: NSGA-II, NSGA-III and their machinery.

Everything is implemented from scratch: fast nondominated sorting,
crowding distance (NSGA-II), Das-Dennis reference points with
normalization and niching (NSGA-III), SBX crossover and polynomial
mutation adapted to the integer server-id genome, and the four
constraint-handling strategies discussed in Section III of the paper.

Defaults follow Table III: population 100, 10 000 evaluations, SBX
rate 0.70 / distribution index 15, PM rate 0.20 / distribution index 15.
"""

from repro.ea.config import NSGAConfig
from repro.ea.population import Population
from repro.ea.encoding import random_population
from repro.ea.sorting import fast_non_dominated_sort
from repro.ea.crowding import crowding_distance
from repro.ea.reference_points import das_dennis_points, ReferencePointNiching
from repro.ea.nsga2 import NSGA2
from repro.ea.nsga3 import NSGA3
from repro.ea.result import EvolutionResult, GenerationStats
from repro.ea.constraint_handling import (
    ConstraintHandler,
    NoHandling,
    ExclusionHandling,
    PenaltyHandling,
    RepairHandling,
)
from repro.ea.hypervolume import hypervolume, reference_point
from repro.ea.archive import ParetoArchive

__all__ = [
    "NSGAConfig",
    "Population",
    "random_population",
    "fast_non_dominated_sort",
    "crowding_distance",
    "das_dennis_points",
    "ReferencePointNiching",
    "NSGA2",
    "NSGA3",
    "EvolutionResult",
    "GenerationStats",
    "ConstraintHandler",
    "NoHandling",
    "ExclusionHandling",
    "PenaltyHandling",
    "RepairHandling",
    "hypervolume",
    "reference_point",
    "ParetoArchive",
]
