"""Small shared utilities: RNG handling, timers, Pareto math,
scatter-adds and text tables."""

from repro.utils.rng import as_generator
from repro.utils.timers import Stopwatch
from repro.utils.pareto import (
    dominates,
    non_dominated_mask,
    pareto_front_indices,
)

__all__ = [
    "as_generator",
    "Stopwatch",
    "dominates",
    "non_dominated_mask",
    "pareto_front_indices",
]
