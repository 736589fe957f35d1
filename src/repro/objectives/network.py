"""Communication cost — a topology-aware extension objective.

The paper grounds its model in the spine-leaf fabric for "redundancy
and bandwidth" but never charges for traffic.  This extension closes
that loop: given a pairwise VM traffic matrix and the fabric's hop
distances, the communication cost of a placement is::

    sum_{i < j} traffic[i, j] * hops(server(i), server(j))

Affinity rules then have a measurable network meaning — SAME_SERVER
collapses a pair's cost to zero, SAME_DATACENTER caps it at
intra-fabric hops, DIFFERENT_DATACENTERS pays the core crossing — and
the ablation in ``examples``/tests can quantify what each rule buys.

This objective is *not* part of the paper's aggregate Z (Eq. 15 has
exactly three terms); it is exposed standalone for extension studies.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionError, ValidationError
from repro.model.placement import UNPLACED
from repro.types import FloatArray, IntArray

__all__ = ["CommunicationCost"]


class CommunicationCost:
    """Hop-weighted traffic cost of a placement.

    Parameters
    ----------
    traffic:
        (n, n) symmetric nonnegative matrix; ``traffic[i, j]`` is the
        flow between VMs i and j (units x hop = cost).
    hop_matrix:
        (m, m) server-to-server hop distances, e.g. from
        :func:`repro.topology.analysis.hop_matrix`.
    """

    name = "communication_cost"

    def __init__(self, traffic: FloatArray, hop_matrix: FloatArray) -> None:
        traffic = np.ascontiguousarray(traffic, dtype=np.float64)
        hops = np.ascontiguousarray(hop_matrix, dtype=np.float64)
        if traffic.ndim != 2 or traffic.shape[0] != traffic.shape[1]:
            raise DimensionError(f"traffic must be square, got {traffic.shape}")
        if hops.ndim != 2 or hops.shape[0] != hops.shape[1]:
            raise DimensionError(f"hop matrix must be square, got {hops.shape}")
        if not np.allclose(traffic, traffic.T):
            raise ValidationError("traffic matrix must be symmetric")
        if np.any(traffic < 0) or np.any(hops < 0):
            raise ValidationError("traffic and hops must be >= 0")
        self.traffic = traffic
        self.hop_matrix = hops
        # Upper-triangle pair list once; evaluation gathers through it.
        iu, ju = np.triu_indices(traffic.shape[0], k=1)
        weights = traffic[iu, ju]
        keep = weights > 0
        self._pair_i = iu[keep]
        self._pair_j = ju[keep]
        self._pair_w = weights[keep]

    @property
    def n(self) -> int:
        """Number of VMs the traffic matrix covers."""
        return self.traffic.shape[0]

    # ------------------------------------------------------------------
    def value(self, assignment: IntArray) -> float:
        """Cost of one genome: row 0 of :meth:`batch` on a batch of one."""
        return float(self.batch(np.asarray(assignment)[None, :])[0])

    def batch(self, population: IntArray) -> FloatArray:
        """Cost per individual for a population matrix (pop, n)."""
        population = np.asarray(population, dtype=np.int64)
        if population.ndim != 2 or population.shape[1] != self.n:
            raise DimensionError(
                f"population shape {population.shape}, expected (pop, {self.n})"
            )
        if self._pair_w.size == 0:
            return np.zeros(population.shape[0])
        a = population[:, self._pair_i]
        b = population[:, self._pair_j]
        live = (a != UNPLACED) & (b != UNPLACED)
        hops = self.hop_matrix[np.where(live, a, 0), np.where(live, b, 0)]
        hops = np.where(live, hops, 0.0)
        return hops @ self._pair_w
