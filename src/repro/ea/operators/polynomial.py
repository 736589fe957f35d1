"""Polynomial mutation (Deb & Goyal 1996), integer-adapted.

Each gene mutates independently with probability ``rate``; the
perturbation follows the polynomial distribution with index eta over
the full gene range ``[0, m-1]``, then rounds and clips back to a valid
server id.  With the Table III settings (rate 0.20, eta 15) mutations
are frequent but mostly local.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.types import IntArray, SeedLike
from repro.utils.rng import as_generator

__all__ = ["polynomial_mutation"]


def polynomial_mutation(
    genomes: IntArray,
    n_servers: int,
    rate: float = 0.20,
    eta: float = 15.0,
    seed: SeedLike = None,
) -> IntArray:
    """Mutate a genome matrix in a single vectorized pass.

    Parameters
    ----------
    genomes:
        (pop, n) int matrix (not modified; a new matrix is returned).
    n_servers:
        Gene upper bound m (exclusive).
    rate:
        Per-gene mutation probability (Table III: 0.20).
    eta:
        Distribution index (Table III: 15).
    """
    genomes = np.asarray(genomes, dtype=np.int64)
    if genomes.ndim != 2:
        raise ValidationError(f"genomes must be 2-D, got {genomes.shape}")
    if not (0.0 <= rate <= 1.0):
        raise ValidationError(f"rate must lie in [0, 1], got {rate}")
    if n_servers < 1:
        raise ValidationError(f"n_servers must be >= 1, got {n_servers}")
    rng = as_generator(seed)

    if n_servers == 1:
        return genomes.copy()

    lo, hi = 0.0, float(n_servers - 1)
    span = hi - lo
    draws = rng.random(genomes.shape)
    mutate = np.flatnonzero(draws < rate)
    u = rng.random(out=draws).ravel()[mutate]  # second draw, same buffer

    # Standard bounded polynomial mutation (Deb's delta-q formulation),
    # evaluated only on the genes the mask selects (flat indices: a
    # boolean gather over the whole matrix costs more than the formula).
    out = genomes.copy()
    genes = out.reshape(-1)
    x = genes[mutate].astype(np.float64)
    below = u < 0.5
    mut_pow = 1.0 / (eta + 1.0)
    with np.errstate(invalid="ignore"):
        xy = 1.0 - np.where(below, x - lo, hi - x) / span
        tail = xy ** (eta + 1.0)
        val = np.where(
            below,
            2.0 * u + (1.0 - 2.0 * u) * tail,
            2.0 * (1.0 - u) + 2.0 * (u - 0.5) * tail,
        )
        root = val**mut_pow
    deltaq = np.where(below, root - 1.0, 1.0 - root)

    # Unselected genes keep their value and take the same clip.
    genes[mutate] = np.rint(x + deltaq * span)
    np.clip(out, 0, n_servers - 1, out=out)
    return out
