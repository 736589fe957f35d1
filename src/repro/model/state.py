"""Mutable platform state: what the scheduler knows "in real time".

The paper's scheduler "is aware of the cloud platform status in real
time" — committed placements consume capacity that later windows must
respect.  :class:`PlatformState` tracks the residual estate: committed
usage per server, which resources sit where, and the previous
allocation X^t needed by the migration-cost objective (Eq. 26).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SchedulerError
from repro.model.infrastructure import Infrastructure
from repro.model.placement import UNPLACED, Placement
from repro.model.request import Request
from repro.types import FloatArray, IntArray
from repro.utils.scatter import scatter_rows

__all__ = ["PlatformState"]


@dataclass
class PlatformState:
    """Running occupancy of an infrastructure across scheduling windows."""

    infrastructure: Infrastructure
    committed_usage: FloatArray = field(init=False)
    _residents: dict[str, tuple[IntArray, FloatArray]] = field(
        init=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        infra = self.infrastructure
        self.committed_usage = np.zeros((infra.m, infra.h))

    # ------------------------------------------------------------------
    @property
    def committed_load(self) -> FloatArray:
        """Current load L_jl induced by committed resources (Eq. 25)."""
        cap = self.infrastructure.capacity
        with np.errstate(divide="ignore", invalid="ignore"):
            load = np.where(
                cap > 0, self.committed_usage / np.where(cap > 0, cap, 1.0), 0.0
            )
            load = np.where((cap == 0) & (self.committed_usage > 0), np.inf, load)
        return load

    @property
    def hosted_resource_count(self) -> int:
        """Total resources currently hosted across all tenants."""
        return sum(
            int(np.sum(assign != UNPLACED)) for assign, _ in self._residents.values()
        )

    def tenants(self) -> tuple[str, ...]:
        """Identifiers of the requests currently holding capacity."""
        return tuple(self._residents)

    # ------------------------------------------------------------------
    def commit(self, key: str, placement: Placement, request: Request) -> None:
        """Reserve capacity for ``placement`` of ``request`` under ``key``.

        Raises :class:`~repro.errors.SchedulerError` if the key is
        already committed or the placement refers to a different
        infrastructure.
        """
        if key in self._residents:
            raise SchedulerError(f"request key {key!r} already committed")
        if placement.infrastructure is not self.infrastructure:
            raise SchedulerError("placement belongs to a different infrastructure")
        if placement.n != request.n:
            raise SchedulerError(
                f"placement covers {placement.n} resources, request has {request.n}"
            )
        usage = placement.server_usage(request.demand)
        self.committed_usage += usage
        self._residents[key] = (placement.assignment.copy(), request.demand.copy())

    def release(self, key: str) -> None:
        """Free the capacity held by ``key`` (tenant departure)."""
        try:
            assignment, demand = self._residents.pop(key)
        except KeyError:
            raise SchedulerError(f"request key {key!r} is not committed") from None
        mask = assignment != UNPLACED
        self.committed_usage -= scatter_rows(
            assignment[mask], demand[mask], self.committed_usage.shape[0]
        )
        # Guard against float drift pulling usage microscopically negative.
        np.clip(self.committed_usage, 0.0, None, out=self.committed_usage)

    def previous_assignment(self, key: str) -> IntArray | None:
        """The committed assignment for ``key`` (X^t for Eq. 26), if any."""
        entry = self._residents.get(key)
        return None if entry is None else entry[0].copy()

    def verify_consistency(self) -> None:
        """Recompute usage from residents and check it matches (test hook)."""
        expect = np.zeros_like(self.committed_usage)
        for assignment, demand in self._residents.values():
            mask = assignment != UNPLACED
            expect += scatter_rows(
                assignment[mask], demand[mask], expect.shape[0]
            )
        if not np.allclose(expect, self.committed_usage, atol=1e-9):
            raise SchedulerError("committed usage diverged from resident ledger")
