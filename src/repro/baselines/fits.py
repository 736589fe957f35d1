"""Classical greedy packing heuristics: first-fit, best-fit, worst-fit.

Not compared in the paper's figures, but the natural extra reference
points: the related work frames cloud allocation as multidimensional
bin packing, and these are its canonical online heuristics.  They share
the greedy scaffolding (capacity + per-request affinity enforcement,
reject-on-failure) so every difference in the benches is purely the
candidate ordering.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.greedy_base import GreedyAllocator
from repro.engine.compiled import CompiledProblem
from repro.types import FloatArray, IntArray

__all__ = [
    "FirstFitAllocator",
    "BestFitAllocator",
    "WorstFitAllocator",
]


class FirstFitAllocator(GreedyAllocator):
    """Lowest-id server that fits — the fastest packing heuristic."""

    name = "first_fit"

    def _candidate_order(
        self,
        compiled: CompiledProblem,
        residual: FloatArray,
        demand: FloatArray,
        valid: np.ndarray,
    ) -> IntArray:
        return np.flatnonzero(valid).astype(np.int64)


class BestFitAllocator(GreedyAllocator):
    """Tightest server first: minimizes leftover headroom, consolidating
    load onto few servers (the provider-cost-friendly greedy)."""

    name = "best_fit"

    def _candidate_order(
        self,
        compiled: CompiledProblem,
        residual: FloatArray,
        demand: FloatArray,
        valid: np.ndarray,
    ) -> IntArray:
        candidates = np.flatnonzero(valid)
        headroom = (residual[candidates] - demand).sum(axis=1)
        return candidates[np.argsort(headroom, kind="stable")].astype(np.int64)


class WorstFitAllocator(GreedyAllocator):
    """Roomiest server first: spreads load, the availability-friendly
    greedy (cf. the load-balancing placement work in related work)."""

    name = "worst_fit"

    def _candidate_order(
        self,
        compiled: CompiledProblem,
        residual: FloatArray,
        demand: FloatArray,
        valid: np.ndarray,
    ) -> IntArray:
        candidates = np.flatnonzero(valid)
        headroom = (residual[candidates] - demand).sum(axis=1)
        return candidates[np.argsort(-headroom, kind="stable")].astype(np.int64)
