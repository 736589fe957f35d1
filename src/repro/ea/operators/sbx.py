"""Simulated binary crossover (Deb & Agrawal 1995), integer-adapted.

SBX mimics single-point binary crossover in continuous space: children
are spread around the parents with a density controlled by the
distribution index eta (children concentrate near parents as eta
grows).  The paper applies it to server-id genomes ("we use SBX and PM
standard"), so children are rounded to the nearest integer and clipped
into ``[0, m)``.

The whole parent population is crossed in one vectorized pass: pair
(2i, 2i+1), draw per-gene spread factors, blend the pairs that cross,
round, clip.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.types import IntArray, SeedLike
from repro.utils.rng import as_generator

__all__ = ["sbx_crossover"]


def _spread_factor(u: np.ndarray, eta: float) -> np.ndarray:
    """The SBX beta distribution sample for uniform draws ``u``."""
    base = np.where(u <= 0.5, 2.0 * u, 1.0 / (2.0 * (1.0 - u)))
    return base ** (1.0 / (eta + 1.0))


def sbx_crossover(
    parents: IntArray,
    n_servers: int,
    rate: float = 0.70,
    eta: float = 15.0,
    seed: SeedLike = None,
) -> IntArray:
    """Cross consecutive parent pairs, returning an offspring matrix.

    Parameters
    ----------
    parents:
        (pop, n) genome matrix; pop must be even.  Pair i is rows
        (2i, 2i+1).
    n_servers:
        Gene upper bound m (exclusive).
    rate:
        Per-pair crossover probability (Table III: 0.70).  Pairs that
        skip crossover pass through unchanged.
    eta:
        Distribution index (Table III: 15).
    """
    parents = np.asarray(parents, dtype=np.int64)
    if parents.ndim != 2:
        raise ValidationError(f"parents must be 2-D, got {parents.shape}")
    pop, n = parents.shape
    if pop % 2:
        raise ValidationError(f"parent count must be even, got {pop}")
    if not (0.0 <= rate <= 1.0):
        raise ValidationError(f"rate must lie in [0, 1], got {rate}")
    if n_servers < 1:
        raise ValidationError(f"n_servers must be >= 1, got {n_servers}")
    rng = as_generator(seed)

    pairs = pop // 2
    u = rng.random((pairs, n))
    swap = rng.random((pairs, n)) < 0.5
    cross = np.flatnonzero(rng.random(pairs) < rate)

    # Pairs that skip crossover keep their parents' genes; only the
    # crossing pairs are blended.
    offspring = parents.copy()
    if cross.size:
        p1 = parents[2 * cross].astype(np.float64)
        p2 = parents[2 * cross + 1].astype(np.float64)
        beta = _spread_factor(u[cross], eta)
        c1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
        c2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
        # Per-gene 50% swap keeps SBX symmetric, as in the reference
        # implementation.
        swapped = swap[cross]
        offspring[2 * cross] = np.rint(np.where(swapped, c2, c1))
        offspring[2 * cross + 1] = np.rint(np.where(swapped, c1, c2))
    np.clip(offspring, 0, n_servers - 1, out=offspring)
    return offspring
