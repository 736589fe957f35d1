"""Optional hard load cap: keep every server below its QoS knee.

Eq. 24 makes QoS degradation a *soft* phenomenon priced by the downtime
objective.  Some providers instead refuse to operate past the knee
(strict SLA mode): the load of Eq. 25 must satisfy ``L_jl <= LM_jl``
outright.  :class:`LoadCapConstraint` expresses that as a capacity-style
constraint with the shrunken limit ``LM * P`` (note: the *raw* capacity
P, because Eq. 25's load denominator is P, not P*F).

Enabled via ``ConstraintSet(..., qos_strict=True)``; off by default to
match the paper.
"""

from __future__ import annotations

import numpy as np

from repro.constraints.base import Constraint
from repro.constraints.capacity import CapacityConstraint
from repro.errors import DimensionError
from repro.model.infrastructure import Infrastructure
from repro.types import FloatArray, IntArray

__all__ = ["LoadCapConstraint"]


class LoadCapConstraint(Constraint):
    """Hard Eq. 25 cap: placed demand <= LM * P per (server, attribute).

    Internally delegates to a :class:`CapacityConstraint` whose limit
    matrix is the knee line, so the vectorized batch paths are shared.
    """

    name = "load_cap"

    def __init__(
        self,
        infrastructure: Infrastructure,
        demand: FloatArray,
        base_usage: FloatArray | None = None,
    ) -> None:
        self.infrastructure = infrastructure
        knee_limit = infrastructure.max_load * infrastructure.capacity
        if base_usage is not None:
            base_usage = np.ascontiguousarray(base_usage, dtype=np.float64)
            if base_usage.shape != knee_limit.shape:
                raise DimensionError(
                    f"base_usage shape {base_usage.shape}, "
                    f"expected {knee_limit.shape}"
                )
            knee_limit = knee_limit - base_usage
        # Reuse the capacity machinery with the knee as the limit.
        self._inner = CapacityConstraint(infrastructure, demand)
        self._inner.retarget(knee_limit)

    @property
    def threshold(self) -> FloatArray:
        """Overflow threshold per (server, attribute): the knee line
        plus the capacity constraint's relative slack."""
        return self._inner.threshold

    def batch_violations(self, population: IntArray) -> IntArray:
        """(server, attribute) cells past the knee line, per row."""
        return self._inner.batch_violations(population)
