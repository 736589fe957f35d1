"""Consumer requests in matrix form (right half of Table I).

A :class:`Request` bundles ``n`` virtual resources — the demand matrix
``C`` (Eq. 2), QoS guarantees ``C^Q``, downtime penalties ``C^U`` and
migration costs ``M`` — together with the consumer's placement rules.
Each rule is a :class:`PlacementGroup`: one of the paper's four
affinity/anti-affinity relationships applied to a subset of the
request's resources.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ConstraintError, DimensionError, ValidationError
from repro.model.attributes import DEFAULT_ATTRIBUTES, AttributeSchema
from repro.types import FloatArray, IntArray, PlacementRule

__all__ = ["PlacementGroup", "Request"]


@dataclass(frozen=True)
class PlacementGroup:
    """One affinity/anti-affinity rule over a group of resources.

    Parameters
    ----------
    rule:
        Which of the four Section III relationships applies.
    members:
        Indices (into the owning request's resources) of the group.
        At least two members — a placement rule over fewer is vacuous.
    """

    rule: PlacementRule
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        members = tuple(int(k) for k in self.members)
        if len(members) < 2:
            raise ConstraintError(
                f"{self.rule.value} group needs >= 2 members, got {members}"
            )
        if len(set(members)) != len(members):
            raise ConstraintError(f"duplicate members in group {members}")
        if any(k < 0 for k in members):
            raise ConstraintError(f"negative resource index in group {members}")
        object.__setattr__(self, "members", members)

    @property
    def size(self) -> int:
        """Number of resources the rule binds."""
        return len(self.members)


@dataclass(frozen=True)
class Request:
    """A consumer request of ``n`` virtual resources plus placement rules.

    Parameters
    ----------
    demand:
        ``C`` of shape (n, h) — Eq. 2.
    qos_guarantee:
        ``C^Q`` of shape (n,), entries in (0, 1].
    downtime_cost:
        ``C^U`` of shape (n,), >= 0.
    migration_cost:
        ``M`` of shape (n,), >= 0.
    groups:
        The affinity/anti-affinity rules attached by the consumer.
    schema:
        Attribute schema; must match the infrastructure's (h = h').
    """

    demand: FloatArray
    qos_guarantee: FloatArray
    downtime_cost: FloatArray
    migration_cost: FloatArray
    groups: tuple[PlacementGroup, ...] = ()
    schema: AttributeSchema = field(default=DEFAULT_ATTRIBUTES)
    name: str = ""

    def __post_init__(self) -> None:
        dem = np.ascontiguousarray(self.demand, dtype=np.float64)
        if dem.ndim != 2:
            raise DimensionError(f"demand must be 2-D (n, h), got {dem.shape}")
        n, h = dem.shape
        if n == 0:
            raise ValidationError("a request needs at least one resource")
        if h != self.schema.h:
            raise DimensionError(
                f"demand has {h} attribute columns, schema has {self.schema.h}"
            )
        if np.any(dem < 0) or not np.all(np.isfinite(dem)):
            raise ValidationError("demands must be finite and >= 0")

        def vec(attr: str) -> np.ndarray:
            arr = np.ascontiguousarray(getattr(self, attr), dtype=np.float64)
            if arr.shape != (n,):
                raise DimensionError(f"{attr} has shape {arr.shape}, expected {(n,)}")
            return arr

        cq = vec("qos_guarantee")
        cu = vec("downtime_cost")
        mk = vec("migration_cost")
        if np.any(cq <= 0) or np.any(cq > 1):
            raise ValidationError("qos_guarantee entries must lie in (0, 1]")
        if np.any(cu < 0) or np.any(mk < 0):
            raise ValidationError("cost vectors must be >= 0")

        for group in self.groups:
            if max(group.members) >= n:
                raise ConstraintError(
                    f"group {group.members} references resource >= n={n}"
                )

        object.__setattr__(self, "demand", dem)
        object.__setattr__(self, "qos_guarantee", cq)
        object.__setattr__(self, "downtime_cost", cu)
        object.__setattr__(self, "migration_cost", mk)
        object.__setattr__(self, "groups", tuple(self.groups))

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of requested resources."""
        return self.demand.shape[0]

    @property
    def h(self) -> int:
        """Number of attributes."""
        return self.demand.shape[1]

    def total_demand(self) -> FloatArray:
        """Column sums of C — aggregate demand per attribute."""
        return self.demand.sum(axis=0)

    # ------------------------------------------------------------------
    @classmethod
    def concatenate(cls, requests: Sequence["Request"]) -> tuple["Request", IntArray]:
        """Merge several requests into one batch (the cyclic time window).

        Returns the merged request plus an ownership vector mapping each
        merged resource index back to its source request index — the
        scheduler uses that to attribute rejections per consumer.
        Group member indices are shifted to the merged numbering.
        """
        if not requests:
            raise ValidationError("need at least one request to concatenate")
        schema = requests[0].schema
        groups: list[PlacementGroup] = []
        owner: list[int] = []
        offset = 0
        for idx, req in enumerate(requests):
            if req.schema.names != schema.names:
                raise ValidationError("requests must share one attribute schema")
            for gr in req.groups:
                groups.append(
                    PlacementGroup(
                        rule=gr.rule,
                        members=tuple(k + offset for k in gr.members),
                    )
                )
            owner.extend([idx] * req.n)
            offset += req.n
        merged = cls(
            demand=np.concatenate([r.demand for r in requests]),
            qos_guarantee=np.concatenate([r.qos_guarantee for r in requests]),
            downtime_cost=np.concatenate([r.downtime_cost for r in requests]),
            migration_cost=np.concatenate([r.migration_cost for r in requests]),
            groups=tuple(groups),
            schema=schema,
            name="+".join(r.name or str(i) for i, r in enumerate(requests)),
        )
        return merged, np.asarray(owner, dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Request(n={self.n}, h={self.h}, groups={len(self.groups)}, "
            f"name={self.name!r})"
        )
