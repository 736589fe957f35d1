"""The provider capacity limit, Eq. 4 / Eq. 16.

For every datacenter i, server j and attribute l::

    sum_k C_kl * X_ijk  <=  P_jl * F_jl

i.e. the demand packed onto a server, per attribute, may not exceed its
capacity once the virtual-to-physical overhead factor F is applied.
When the platform already hosts committed tenants, their usage is a
fixed baseline that shrinks the right-hand side.

A violation is counted per (server, attribute) cell that overflows —
this is the granularity the tabu repair works at ("servers where
constraints are exceeded", Fig. 5).
"""

from __future__ import annotations

import numpy as np

from repro.constraints.base import Constraint
from repro.engine.kernels import active_kernel
from repro.errors import DimensionError
from repro.model.infrastructure import Infrastructure
from repro.types import FloatArray, IntArray

__all__ = ["CapacityConstraint"]


class CapacityConstraint(Constraint):
    """Vectorized Eq. 4 checker.

    Parameters
    ----------
    infrastructure:
        The provider estate (supplies P, F and m, h).
    demand:
        The request's C matrix, shape (n, h).
    base_usage:
        Optional committed usage matrix (m, h) from earlier scheduling
        windows; defaults to an empty platform.
    tolerance:
        Relative slack for float comparisons (overflow must exceed
        capacity by more than ``tolerance`` to count).
    """

    name = "capacity"

    def __init__(
        self,
        infrastructure: Infrastructure,
        demand: FloatArray,
        base_usage: FloatArray | None = None,
        tolerance: float = 1e-9,
    ) -> None:
        self.infrastructure = infrastructure
        demand = np.ascontiguousarray(demand, dtype=np.float64)
        if demand.ndim != 2 or demand.shape[1] != infrastructure.h:
            raise DimensionError(
                f"demand shape {demand.shape} incompatible with h={infrastructure.h}"
            )
        self.demand = demand
        effective = infrastructure.effective_capacity
        if base_usage is not None:
            base_usage = np.ascontiguousarray(base_usage, dtype=np.float64)
            if base_usage.shape != effective.shape:
                raise DimensionError(
                    f"base_usage shape {base_usage.shape}, expected {effective.shape}"
                )
            effective = effective - base_usage
        #: Residual usable capacity per (server, attribute).
        self.limit: FloatArray = effective
        self.tolerance = float(tolerance)
        self._slack = self.tolerance * np.maximum(1.0, np.abs(self.limit))
        #: Overflow threshold per (server, attribute): ``limit`` plus the
        #: relative slack.  A cell violates when its usage is strictly
        #: above it; every scorer compares against these exact floats.
        self.threshold: FloatArray = self.limit + self._slack

    def retarget(self, limit: FloatArray) -> None:
        """Swap the limit matrix, keeping slack/threshold consistent.

        The precomputed ``threshold`` must never go stale relative to
        ``limit`` — wrappers that repurpose the capacity machinery with
        a different right-hand side (:class:`LoadCapConstraint`) go
        through here instead of assigning ``limit`` directly.
        """
        limit = np.ascontiguousarray(limit, dtype=np.float64)
        if limit.shape != self.limit.shape:
            raise DimensionError(
                f"limit shape {limit.shape}, expected {self.limit.shape}"
            )
        self.limit = limit
        self._slack = self.tolerance * np.maximum(1.0, np.abs(limit))
        self.threshold = self.limit + self._slack

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of resources in the request."""
        return self.demand.shape[0]

    # ------------------------------------------------------------------
    def batch_usage(self, population: IntArray) -> FloatArray:
        """Usage tensor (pop, m, h) for a whole population.

        Dispatches to the active kernel (one bincount per attribute
        over a ``(row, server)`` cell index on the numpy kernel) — no
        Python-level loop over individuals on either kernel.
        """
        population = np.asarray(population, dtype=np.int64)
        pop, n = population.shape
        if n != self.n:
            raise DimensionError(
                f"population genome length {n} != request size {self.n}"
            )
        return active_kernel().batch_usage(
            population, self.demand, self.limit.shape[0]
        )

    def batch_violations(self, population: IntArray) -> IntArray:
        """Overloaded (server, attribute) cells per row (Eq. 4/16)."""
        usage = self.batch_usage(population)
        return active_kernel().batch_over_counts(usage, self.threshold)
