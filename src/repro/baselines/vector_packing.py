"""Vector bin-packing heuristics: first-fit decreasing and dot-product.

The paper frames allocation as multidimensional bin packing (its
NP-hardness argument cites the vector scheduling literature); these are
that literature's workhorse heuristics, added as stronger greedy
reference points than plain first-fit:

* **FFD** — process resources largest-first (by normalized demand
  magnitude), place each on the first server that fits.  Sorting
  first is the classic approximation-ratio improvement over first-fit.
* **Dot-product** — place each resource on the valid server whose
  remaining-capacity vector best *aligns* with the demand vector
  (maximum dot product of normalized vectors), the multi-dimensional
  analogue of best-fit that avoids fragmenting one attribute while
  another idles (Panigrahy et al.'s heuristic family).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.greedy_base import GreedyAllocator
from repro.engine.compiled import CompiledProblem
from repro.model.request import Request
from repro.types import FloatArray, IntArray

__all__ = ["FirstFitDecreasingAllocator", "DotProductAllocator"]


class FirstFitDecreasingAllocator(GreedyAllocator):
    """First-fit over resources sorted by decreasing normalized size."""

    name = "first_fit_decreasing"

    def _placement_order(self, request: Request) -> IntArray:
        # Normalize each attribute by the request's own maximum so one
        # huge-valued attribute (disk) does not dominate the size rank.
        demand = request.demand
        scale = demand.max(axis=0)
        scale = np.where(scale > 0, scale, 1.0)
        size = (demand / scale).sum(axis=1)
        by_size = np.argsort(-size, kind="stable")
        # Keep affinity-group members early (they need freedom), but
        # order within the two blocks by size.
        grouped = np.zeros(request.n, dtype=bool)
        for group in request.groups:
            grouped[list(group.members)] = True
        first = [int(k) for k in by_size if grouped[k]]
        rest = [int(k) for k in by_size if not grouped[k]]
        return np.asarray(first + rest, dtype=np.int64)

    def _candidate_order(
        self,
        compiled: CompiledProblem,
        residual: FloatArray,
        demand: FloatArray,
        valid: np.ndarray,
    ) -> IntArray:
        return np.flatnonzero(valid).astype(np.int64)


class DotProductAllocator(GreedyAllocator):
    """Maximum demand/residual alignment (normalized dot product)."""

    name = "dot_product"

    def _candidate_order(
        self,
        compiled: CompiledProblem,
        residual: FloatArray,
        demand: FloatArray,
        valid: np.ndarray,
    ) -> IntArray:
        candidates = np.flatnonzero(valid)
        residual = residual[candidates]
        # Normalize both vectors so the score is pure alignment; a tiny
        # epsilon guards fully drained servers that still "fit" due to
        # the capacity test's tolerance.
        res_norm = np.linalg.norm(residual, axis=1)
        dem_norm = np.linalg.norm(demand)
        score = residual @ demand / (res_norm * dem_norm + 1e-12)
        return candidates[np.argsort(-score, kind="stable")].astype(np.int64)
