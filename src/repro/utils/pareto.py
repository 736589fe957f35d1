"""Pareto-dominance primitives shared by the EA layer and the reporters.

All functions operate on *minimization* objective matrices of shape
``(n_points, n_objectives)``.  The EA layer builds its fast
nondominated sort on top of the pairwise machinery here; tests use the
naive implementations as oracles for the optimized ones.
"""

from __future__ import annotations

import numpy as np

from repro.types import BoolArray, FloatArray, IntArray

__all__ = [
    "dominates",
    "dominance_matrix",
    "non_dominated_mask",
    "pareto_front_indices",
]


def dominates(a: FloatArray, b: FloatArray) -> bool:
    """Return True iff objective vector ``a`` Pareto-dominates ``b``.

    ``a`` dominates ``b`` when it is no worse in every objective and
    strictly better in at least one (minimization).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return bool(np.all(a <= b) and np.any(a < b))


def dominance_matrix(objectives: FloatArray) -> BoolArray:
    """Pairwise dominance: ``out[i, j]`` is True iff point i dominates j.

    Built one objective column at a time: each column adds one (n, n)
    broadcast comparison, so no (n, n, m) tensor is reduced over its
    short last axis (Table III: population 100, three objectives).
    """
    obj = np.asarray(objectives, dtype=np.float64)
    if obj.ndim != 2:
        raise ValueError(f"objectives must be 2-D, got shape {obj.shape}")
    n = obj.shape[0]
    le = np.ones((n, n), dtype=bool)
    lt = np.zeros((n, n), dtype=bool)
    for column in obj.T:
        le &= column[:, None] <= column[None, :]
        lt |= column[:, None] < column[None, :]
    return le & lt


def non_dominated_mask(objectives: FloatArray) -> BoolArray:
    """Boolean mask of points not dominated by any other point."""
    dom = dominance_matrix(objectives)
    return ~np.any(dom, axis=0)


def pareto_front_indices(objectives: FloatArray) -> IntArray:
    """Indices of the (first) Pareto front, in ascending index order."""
    return np.flatnonzero(non_dominated_mask(objectives)).astype(np.int64)

