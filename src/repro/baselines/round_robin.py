"""Round Robin with server affinity (the paper's first baseline).

After Mahajan, Makroo & Dahiya (JIPS 2013): servers are tried in
rotating order from a persistent pointer, so consecutive placements
spread across the estate; the affinity twist sorts each request's
resources so that placement-rule group members are allocated together
(see :meth:`GreedyAllocator._placement_order`).  The pointer advances
past each server that receives a resource, giving the classic
load-spreading behaviour that is fast but blind to cost and QoS —
which is why Figure 9 shows it rejecting far more requests than the
evolutionary approaches once instances tighten.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.greedy_base import GreedyAllocator
from repro.engine.compiled import CompiledProblem
from repro.types import AlgorithmKind, FloatArray, IntArray

__all__ = ["RoundRobinAllocator"]


class RoundRobinAllocator(GreedyAllocator):
    """Rotating-pointer placement with affinity-sorted resources."""

    name = "round_robin"
    kind = AlgorithmKind.ROUND_ROBIN

    def __init__(self) -> None:
        self._pointer = 0

    def runtime_state(self) -> dict | None:
        """The persistent rotation pointer."""
        return {"pointer": self._pointer}

    def restore_runtime_state(self, state: dict) -> None:
        """Restore the rotation pointer."""
        self._pointer = int(state["pointer"])

    def _candidate_order(
        self,
        compiled: CompiledProblem,
        residual: FloatArray,
        demand: FloatArray,
        valid: np.ndarray,
    ) -> IntArray:
        m = compiled.m
        rotation = (np.arange(m) + self._pointer) % m
        ordered = rotation[valid[rotation]]
        # Advance the pointer past the server about to be used.
        self._pointer = (int(ordered[0]) + 1) % m
        return ordered.astype(np.int64)
