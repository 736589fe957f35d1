"""Placement: the decision variable X_ijk and its flat genome form.

The paper encodes an allocation as a boolean tensor ``X_ijk`` (resource
k on server j of datacenter i) but evolves *genomes*: "Each individual
possesses chromosomes here standing for virtual machines.  Each gene
stands for a server ID".  :class:`Placement` is that flat form — an
integer vector ``assignment`` of length n whose entry is a global
server index (or :data:`UNPLACED` for a rejected/unhosted resource) —
with lossless conversion to and from the dense tensor.

Because exactly one server hosts each placed resource, the assignment
vector satisfies Eq. 5/17 (each resource allocated once) by
construction; the dense form exists for the LP backend and for tests
that exercise the tensor-level equations literally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EncodingError
from repro.model.infrastructure import Infrastructure
from repro.types import BoolArray, FloatArray, IntArray
from repro.utils.scatter import scatter_rows

__all__ = ["Placement", "UNPLACED"]

#: Sentinel gene value for a resource that is not hosted anywhere.
UNPLACED: int = -1


@dataclass(frozen=True)
class Placement:
    """An assignment of n resources onto the servers of an infrastructure.

    Parameters
    ----------
    assignment:
        Integer vector (n,) of global server indices in ``[0, m)``,
        or :data:`UNPLACED` for unhosted resources.
    infrastructure:
        The provider estate the indices refer to.
    """

    assignment: IntArray
    infrastructure: Infrastructure

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.assignment, dtype=np.int64)
        if arr.ndim != 1:
            raise EncodingError(f"assignment must be 1-D, got shape {arr.shape}")
        m = self.infrastructure.m
        bad = (arr != UNPLACED) & ((arr < 0) | (arr >= m))
        if np.any(bad):
            raise EncodingError(
                f"assignment contains server ids outside [0, {m}): "
                f"{arr[bad][:5].tolist()}..."
            )
        object.__setattr__(self, "assignment", arr)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of resources covered by this placement."""
        return self.assignment.shape[0]

    @property
    def placed_mask(self) -> BoolArray:
        """Boolean mask of resources that are actually hosted."""
        return self.assignment != UNPLACED

    # ------------------------------------------------------------------
    # Tensor form
    # ------------------------------------------------------------------
    def to_dense(self) -> BoolArray:
        """Materialize the boolean tensor ``X`` with shape (g, m, n).

        ``X[i, j, k]`` is True iff resource k sits on server j *and*
        server j belongs to datacenter i — matching the paper's X_ijk.
        """
        infra = self.infrastructure
        x = np.zeros((infra.g, infra.m, self.n), dtype=bool)
        placed = np.flatnonzero(self.placed_mask)
        servers = self.assignment[placed]
        dcs = infra.server_datacenter[servers]
        x[dcs, servers, placed] = True
        return x

    @classmethod
    def from_dense(cls, x: BoolArray, infrastructure: Infrastructure) -> "Placement":
        """Collapse a dense tensor back to the flat genome.

        Raises :class:`~repro.errors.EncodingError` if any resource is
        hosted more than once or on a server/datacenter pair that
        disagrees with the infrastructure's server→datacenter map.
        """
        x = np.asarray(x, dtype=bool)
        g, m, n = infrastructure.g, infrastructure.m, x.shape[-1]
        if x.shape != (g, m, n):
            raise EncodingError(
                f"dense X has shape {x.shape}, expected {(g, m, n)}"
            )
        per_resource = x.sum(axis=(0, 1))
        if np.any(per_resource > 1):
            raise EncodingError("some resource is hosted on multiple servers")
        dc_idx, srv_idx, res_idx = np.nonzero(x)
        if np.any(infrastructure.server_datacenter[srv_idx] != dc_idx):
            raise EncodingError("X places a server in the wrong datacenter")
        assignment = np.full(n, UNPLACED, dtype=np.int64)
        assignment[res_idx] = srv_idx
        return cls(assignment=assignment, infrastructure=infrastructure)

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------
    def server_usage(self, demand: FloatArray) -> FloatArray:
        """Total demand placed on each server: shape (m, h).

        ``demand`` is the request's C matrix (n, h).  Vectorized with a
        scatter-add; unplaced resources contribute nothing.
        """
        demand = np.asarray(demand, dtype=np.float64)
        if demand.shape[0] != self.n:
            raise EncodingError(
                f"demand rows ({demand.shape[0]}) != placement size ({self.n})"
            )
        infra = self.infrastructure
        mask = self.placed_mask
        return scatter_rows(self.assignment[mask], demand[mask], infra.m)

    def loads(self, demand: FloatArray) -> FloatArray:
        """Per-server, per-attribute load L_jl of Eq. 25 (usage / capacity).

        Servers with zero capacity on an attribute report load 0 when
        unused and ``inf`` when anything is placed on them.
        """
        usage = self.server_usage(demand)
        cap = self.infrastructure.capacity
        with np.errstate(divide="ignore", invalid="ignore"):
            load = np.where(cap > 0, usage / np.where(cap > 0, cap, 1.0), 0.0)
            load = np.where((cap == 0) & (usage > 0), np.inf, load)
        return load

    def copy(self) -> "Placement":
        """Independent copy (the assignment array is duplicated)."""
        return Placement(
            assignment=self.assignment.copy(), infrastructure=self.infrastructure
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Placement):
            return NotImplemented
        return (
            self.infrastructure is other.infrastructure
            and np.array_equal(self.assignment, other.assignment)
        )

    def __hash__(self) -> int:
        return hash((id(self.infrastructure), self.assignment.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        placed = int(self.placed_mask.sum())
        return f"Placement(n={self.n}, placed={placed})"
