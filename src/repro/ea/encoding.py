"""Genome initialization.

A genome assigns each of the n requested resources a server id in
``[0, m)``.  :func:`random_population` draws uniformly, as the EA
chapters of the paper do.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.types import IntArray, SeedLike
from repro.utils.rng import as_generator

__all__ = ["random_population"]


def random_population(
    pop_size: int, n: int, m: int, seed: SeedLike = None
) -> IntArray:
    """Uniform random genome matrix of shape (pop_size, n), genes in [0, m)."""
    if pop_size < 1 or n < 1 or m < 1:
        raise ValidationError(
            f"pop_size, n and m must be >= 1 (got {pop_size}, {n}, {m})"
        )
    rng = as_generator(seed)
    return rng.integers(0, m, size=(pop_size, n), dtype=np.int64)
