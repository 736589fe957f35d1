"""Small shared utilities: RNG handling, timers, Pareto math,
scatter-adds and text tables."""

from repro.utils.rng import as_generator, spawn_generators
from repro.utils.timers import Stopwatch, format_duration
from repro.utils.pareto import (
    dominates,
    non_dominated_mask,
    pareto_front_indices,
)

__all__ = [
    "as_generator",
    "spawn_generators",
    "Stopwatch",
    "format_duration",
    "dominates",
    "non_dominated_mask",
    "pareto_front_indices",
]
