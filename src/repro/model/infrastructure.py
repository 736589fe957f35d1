"""The provider substrate in matrix form (left half of Table I).

:class:`Infrastructure` is the computational view of a provider's
estate: ``g`` datacenters, ``m`` servers, ``h`` attributes, with the
capacity matrix ``P`` (Eq. 1), the virtual-to-physical factor matrix
``F`` (Eq. 3), the cost vectors ``E``/``U`` (Eq. 6/7) and the QoS
matrices ``LM``/``QM`` (Eq. 8).  All arrays are C-contiguous float64
and validated at construction; downstream code may rely on that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import DimensionError, ValidationError
from repro.model.attributes import DEFAULT_ATTRIBUTES, AttributeSchema
from repro.types import FloatArray, IntArray

__all__ = ["Infrastructure"]


@dataclass(frozen=True)
class Infrastructure:
    """Provider resources as matrices.

    Parameters
    ----------
    capacity:
        ``P`` of shape (m, h) — Eq. 1.
    capacity_factor:
        ``F`` of shape (m, h) — Eq. 3, entries in (0, 1].
    operating_cost:
        ``E`` of shape (m,) — Eq. 6.
    usage_cost:
        ``U`` of shape (m,) — Eq. 7.
    max_load:
        ``LM`` of shape (m, h) — Eq. 8, entries in [0, 1).
    max_qos:
        ``QM`` of shape (m, h) — Eq. 8, entries in [0, 1).
    server_datacenter:
        Integer vector of shape (m,) mapping each server j to its
        datacenter i in [0, g).  This is how the boolean tensor
        X_ijk collapses to a flat per-VM server genome.
    schema:
        Attribute schema fixing the meaning of the h columns.
    server_provider:
        Optional integer vector of shape (m,) mapping each server to a
        cloud provider in [0, p) — the multi-cloud market axis
        (``docs/MARKET.md``).  ``None`` (the default) means a single
        provider owns the whole estate; the paper's single-datacenter
        setting compiles byte-identically through that default.
    """

    capacity: FloatArray
    capacity_factor: FloatArray
    operating_cost: FloatArray
    usage_cost: FloatArray
    max_load: FloatArray
    max_qos: FloatArray
    server_datacenter: IntArray
    schema: AttributeSchema = field(default=DEFAULT_ATTRIBUTES)
    datacenter_names: tuple[str, ...] = ()
    server_names: tuple[str, ...] = ()
    server_provider: IntArray | None = None
    provider_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        cap = np.ascontiguousarray(self.capacity, dtype=np.float64)
        if cap.ndim != 2:
            raise DimensionError(f"capacity must be 2-D (m, h), got {cap.shape}")
        m, h = cap.shape
        if h != self.schema.h:
            raise DimensionError(
                f"capacity has {h} attribute columns, schema has {self.schema.h}"
            )
        if m == 0:
            raise ValidationError("an infrastructure needs at least one server")

        def mat(name: str) -> np.ndarray:
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (m, h):
                raise DimensionError(f"{name} has shape {arr.shape}, expected {(m, h)}")
            return arr

        def vec(name: str) -> np.ndarray:
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (m,):
                raise DimensionError(f"{name} has shape {arr.shape}, expected {(m,)}")
            return arr

        fac = mat("capacity_factor")
        lm = mat("max_load")
        qm = mat("max_qos")
        e = vec("operating_cost")
        u = vec("usage_cost")

        if np.any(cap < 0) or not np.all(np.isfinite(cap)):
            raise ValidationError("capacities must be finite and >= 0")
        if np.any(fac <= 0) or np.any(fac > 1):
            raise ValidationError("capacity factors must lie in (0, 1]")
        if np.any(lm < 0) or np.any(lm >= 1):
            raise ValidationError("max_load entries must lie in [0, 1)")
        if np.any(qm < 0) or np.any(qm >= 1):
            raise ValidationError("max_qos entries must lie in [0, 1)")
        if np.any(e < 0) or np.any(u < 0):
            raise ValidationError("cost vectors must be >= 0")

        dc = np.ascontiguousarray(self.server_datacenter, dtype=np.int64)
        if dc.shape != (m,):
            raise DimensionError(
                f"server_datacenter has shape {dc.shape}, expected {(m,)}"
            )
        if np.any(dc < 0):
            raise ValidationError("datacenter ids must be >= 0")
        g = int(dc.max()) + 1
        present = np.unique(dc)
        if present.size != g:
            raise ValidationError(
                "datacenter ids must be contiguous 0..g-1 with every id used"
            )

        object.__setattr__(self, "capacity", cap)
        object.__setattr__(self, "capacity_factor", fac)
        object.__setattr__(self, "operating_cost", e)
        object.__setattr__(self, "usage_cost", u)
        object.__setattr__(self, "max_load", lm)
        object.__setattr__(self, "max_qos", qm)
        object.__setattr__(self, "server_datacenter", dc)
        if self.datacenter_names and len(self.datacenter_names) != g:
            raise DimensionError(
                f"{len(self.datacenter_names)} datacenter names for g={g}"
            )
        if self.server_names and len(self.server_names) != m:
            raise DimensionError(f"{len(self.server_names)} server names for m={m}")

        if self.server_provider is not None:
            sp = np.ascontiguousarray(self.server_provider, dtype=np.int64)
            if sp.shape != (m,):
                raise DimensionError(
                    f"server_provider has shape {sp.shape}, expected {(m,)}"
                )
            if np.any(sp < 0):
                raise ValidationError("provider ids must be >= 0")
            p = int(sp.max()) + 1
            if np.unique(sp).size != p:
                raise ValidationError(
                    "provider ids must be contiguous 0..p-1 with every id used"
                )
            object.__setattr__(self, "server_provider", sp)
        else:
            p = 1
        if self.provider_names and len(self.provider_names) != p:
            raise DimensionError(
                f"{len(self.provider_names)} provider names for p={p}"
            )

    # ------------------------------------------------------------------
    # Sizes (Table I notation)
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of servers."""
        return self.capacity.shape[0]

    @property
    def h(self) -> int:
        """Number of attributes."""
        return self.capacity.shape[1]

    @property
    def g(self) -> int:
        """Number of datacenters."""
        return int(self.server_datacenter.max()) + 1

    @property
    def p(self) -> int:
        """Number of cloud providers (1 unless a market tagged servers)."""
        if self.server_provider is None:
            return 1
        return int(self.server_provider.max()) + 1

    @property
    def provider_of_server(self) -> IntArray:
        """Per-server provider id, shape (m,) — all zeros by default."""
        if self.server_provider is None:
            return np.zeros(self.m, dtype=np.int64)
        return self.server_provider

    # ------------------------------------------------------------------
    # Derived matrices
    # ------------------------------------------------------------------
    @property
    def effective_capacity(self) -> FloatArray:
        """``P * F`` element-wise — the usable capacity of Eq. 4's RHS."""
        return self.capacity * self.capacity_factor

    def blocked_usage(
        self, usage: FloatArray | None, servers: Sequence[int] | np.ndarray
    ) -> FloatArray:
        """A copy of the (m, h) ``usage`` (zeros when None) with every
        server in ``servers`` — indices or a boolean mask — filled to its
        effective capacity.

        An out-of-service server is full: a placer handed this usage
        puts nothing on it.  Cells already above capacity keep their
        value.
        """
        blocked = (
            np.zeros((self.m, self.h))
            if usage is None
            else np.array(usage, dtype=np.float64)
        )
        effective = self.effective_capacity
        blocked[servers] = np.maximum(blocked[servers], effective[servers])
        return blocked

    def servers_in_datacenter(self, datacenter: int) -> IntArray:
        """Indices of the servers hosted in ``datacenter``."""
        if not (0 <= datacenter < self.g):
            raise ValidationError(
                f"datacenter {datacenter} out of range [0, {self.g})"
            )
        return np.flatnonzero(self.server_datacenter == datacenter).astype(np.int64)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def homogeneous(
        cls,
        *,
        datacenters: int,
        servers_per_datacenter: int,
        capacity: Sequence[float],
        capacity_factor: Sequence[float] | None = None,
        operating_cost: float = 1.0,
        usage_cost: float = 1.0,
        max_load: float = 0.8,
        max_qos: float = 0.99,
        schema: AttributeSchema = DEFAULT_ATTRIBUTES,
    ) -> "Infrastructure":
        """Build a uniform estate — the common benchmarking substrate."""
        g = int(datacenters)
        per = int(servers_per_datacenter)
        if g < 1 or per < 1:
            raise ValidationError("need at least one datacenter and one server")
        m = g * per
        cap_row = np.asarray(capacity, dtype=np.float64)
        if cap_row.shape != (schema.h,):
            raise DimensionError(
                f"capacity row has shape {cap_row.shape}, expected ({schema.h},)"
            )
        fac_row = (
            np.ones(schema.h)
            if capacity_factor is None
            else np.asarray(capacity_factor, dtype=np.float64)
        )
        return cls(
            capacity=np.tile(cap_row, (m, 1)),
            capacity_factor=np.tile(fac_row, (m, 1)),
            operating_cost=np.full(m, float(operating_cost)),
            usage_cost=np.full(m, float(usage_cost)),
            max_load=np.full((m, schema.h), float(max_load)),
            max_qos=np.full((m, schema.h), float(max_qos)),
            server_datacenter=np.repeat(np.arange(g, dtype=np.int64), per),
            schema=schema,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Infrastructure(g={self.g}, m={self.m}, h={self.h}, "
            f"attrs={self.schema.names})"
        )
