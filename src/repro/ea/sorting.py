"""Fast nondominated sorting (Deb et al. 2002).

:func:`fast_non_dominated_sort` returns a rank per individual (0 = first
Pareto front).  The pairwise dominance matrix is computed with one
broadcast pass; the peeling loop then strips fronts by repeatedly
removing individuals whose dominators are all already ranked.  For the
population sizes involved (Table III: 100; merged parent+offspring:
200) the O(N^2 M) broadcast beats any Python-level bookkeeping.
"""

from __future__ import annotations

import numpy as np

from repro.types import FloatArray, IntArray
from repro.utils.pareto import dominance_matrix

__all__ = ["fast_non_dominated_sort"]


def fast_non_dominated_sort(objectives: FloatArray) -> IntArray:
    """Rank individuals by Pareto front (0 = nondominated).

    Parameters
    ----------
    objectives:
        (pop, k) minimization matrix.

    Returns
    -------
    (pop,) int array of front indices.
    """
    objectives = np.asarray(objectives, dtype=np.float64)
    pop = objectives.shape[0]
    if pop == 0:
        return np.empty(0, dtype=np.int64)
    dom = dominance_matrix(objectives)  # dom[i, j]: i dominates j
    dominators_left = dom.sum(axis=0).astype(np.int64)  # per column j
    ranks = np.full(pop, -1, dtype=np.int64)
    current = np.flatnonzero(dominators_left == 0)
    front = 0
    while current.size:
        ranks[current] = front
        # Removing the current front decrements the dominator counts of
        # everything it dominates.
        dominators_left -= dom[current].sum(axis=0)
        dominators_left[current] = -1  # never re-selected
        front += 1
        current = np.flatnonzero(dominators_left == 0)
    return ranks
