"""Downtime cost — the second term of Z (Eq. 23).

The provider pays a penalty C^U_k whenever the QoS delivered to
resource k (the Eq. 24 curve evaluated at the Eq. 25 loads of its host)
misses the guaranteed level C^Q_k.  A resource's delivered QoS is the
*worst* attribute of its host: one saturated attribute (CPU, say)
degrades the hosted service regardless of how idle the others are.

Two accounting modes:

``"shortfall"`` (default)
    penalty_k = C^U_k * max(0, (C^Q_k - Q) / C^Q_k) — zero while the
    guarantee holds, growing with the relative shortfall.  This matches
    the prose ("if it is not respected the provider pays a downtime
    penalty").
``"literal"``
    penalty_k = C^U_k * (Q / C^Q_k) — the formula exactly as printed in
    Eq. 23.  Note it *rewards* degradation readers should treat it as a
    typo; it is kept for fidelity experiments only.
"""

from __future__ import annotations

import numpy as np

from repro.engine.kernels import active_kernel
from repro.errors import DimensionError, ValidationError
from repro.model.infrastructure import Infrastructure
from repro.model.placement import UNPLACED
from repro.model.request import Request
from repro.types import FloatArray, IntArray

__all__ = ["DowntimeCost"]

_MODES = ("shortfall", "literal")


class DowntimeCost:
    """Vectorized Eq. 23 evaluator.

    Parameters
    ----------
    infrastructure, request:
        The problem instance (supplies LM, QM, C, C^Q, C^U).
    base_usage:
        Committed usage from prior windows; adds to the load every
        candidate induces.
    mode:
        ``"shortfall"`` or ``"literal"`` (see module docstring).
    """

    name = "downtime_cost"

    def __init__(
        self,
        infrastructure: Infrastructure,
        request: Request,
        base_usage: FloatArray | None = None,
        mode: str = "shortfall",
    ) -> None:
        if mode not in _MODES:
            raise ValidationError(f"mode must be one of {_MODES}, got {mode!r}")
        self.infrastructure = infrastructure
        self.request = request
        self.mode = mode
        if base_usage is None:
            base_usage = np.zeros((infrastructure.m, infrastructure.h))
        else:
            base_usage = np.ascontiguousarray(base_usage, dtype=np.float64)
            if base_usage.shape != (infrastructure.m, infrastructure.h):
                raise DimensionError(
                    f"base_usage shape {base_usage.shape}, expected "
                    f"{(infrastructure.m, infrastructure.h)}"
                )
        self.base_usage = base_usage

    # ------------------------------------------------------------------
    def _server_min_qos(self, usage: FloatArray) -> FloatArray:
        """Worst-attribute QoS per server for a usage array (..., m, h)."""
        infra = self.infrastructure
        return active_kernel().server_min_qos(
            usage, self.base_usage, infra.capacity, infra.max_load, infra.max_qos
        )

    def _penalties(self, qos_per_resource: FloatArray) -> FloatArray:
        """Map delivered QoS per resource to monetary penalties.

        Works in place: ``qos_per_resource`` must be a fresh array the
        caller owns, and it comes back holding the penalties.
        """
        cq = self.request.qos_guarantee
        cu = self.request.downtime_cost
        out = qos_per_resource
        if self.mode == "literal":
            np.divide(out, cq, out=out)
        else:
            np.subtract(cq, out, out=out)
            np.divide(out, cq, out=out)
            np.maximum(0.0, out, out=out)
        return np.multiply(cu, out, out=out)

    # ------------------------------------------------------------------
    def batch(self, population: IntArray, usage: FloatArray) -> FloatArray:
        """Downtime cost per individual.

        ``usage`` is the (pop, m, h) tensor already computed by the
        capacity constraint's batch pass — sharing it avoids a second
        scatter-add over the population.
        """
        population = np.asarray(population, dtype=np.int64)
        pop, n = population.shape
        if usage.shape[0] != pop:
            raise DimensionError(
                f"usage tensor covers {usage.shape[0]} individuals, "
                f"population has {pop}"
            )
        server_qos = self._server_min_qos(usage)  # (pop, m)
        m = server_qos.shape[1]
        # A flat gather of each gene's host.  An UNPLACED (-1) gene reads
        # the cell just before its row (the last cell, for row 0), and
        # its penalty is zeroed below.
        cells = population + np.arange(0, pop * m, m)[:, None]
        penalties = self._penalties(server_qos.ravel()[cells])
        unplaced = population == UNPLACED
        if unplaced.any():
            penalties[unplaced] = 0.0
        return penalties.sum(axis=1)
