"""CompiledProblem: the once-per-(infrastructure, request) compilation.

The hybrid spends its whole budget re-evaluating placements, yet every
layer of the stack used to recompile the same instance facts from
scratch — the effective-capacity matrix, one constraint object per
placement group, the per-VM group membership index, the cost
coefficient vectors.  :class:`CompiledProblem` hoists all of that into
one immutable object built exactly once per instance and shared by the
tabu repair, the NSGA allocators, the CP search and the scheduler
(via :class:`~repro.engine.cache.ProblemCache`).

Only *static* facts live here: anything that changes between windows
(committed base usage, the previous assignment X^t) is a cheap binding
applied by :meth:`CompiledProblem.constraint_set` /
:meth:`CompiledProblem.evaluator`, so one compilation serves every
window that sees the same (infrastructure, request) pair.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.constraints.groups import GroupConstraint
from repro.constraints.registry import ConstraintSet
from repro.model.infrastructure import Infrastructure
from repro.model.request import Request
from repro.objectives.evaluator import PopulationEvaluator
from repro.types import FloatArray, IntArray, PlacementRule
from repro.utils.timers import Stopwatch

__all__ = ["CompiledProblem"]


def _feed(digest: "hashlib._Hash", array: np.ndarray) -> None:
    digest.update(str(array.shape).encode())
    digest.update(np.ascontiguousarray(array).tobytes())


class CompiledProblem:
    """Immutable precomputation of one allocation problem instance.

    Attributes
    ----------
    demand:
        The request's C matrix (n, h), C-contiguous.
    effective_capacity:
        ``P * F`` (m, h) — computed once instead of per consumer.
    per_resource_rate:
        ``E + U`` per server — the Eq. 22 cost coefficient vector.
    group_members:
        One int index array per placement group.
    group_rules:
        The matching :class:`PlacementRule` per group.
    member_groups:
        Per-VM tuple of group ids the VM belongs to (the CP search's
        ``groups_by_member`` index, compiled once).
    vm_group_slots:
        Per-VM tuple of ``(group_id, position)`` pairs locating the VM
        inside each of its groups' member arrays — the O(groups-of-vm)
        hook the incremental evaluator updates through.
    group_constraints:
        Prebuilt :class:`GroupConstraint` objects, shared by every
        :class:`ConstraintSet` bound from this compilation.
    fingerprint:
        Stable content hash of the instance; the cache key.
    compile_seconds:
        Wall-clock cost of this compilation (telemetry).
    """

    __slots__ = (
        "infrastructure",
        "request",
        "n",
        "m",
        "h",
        "g",
        "p",
        "demand",
        "effective_capacity",
        "server_datacenter",
        "server_provider",
        "operating_cost",
        "usage_cost",
        "per_resource_rate",
        "migration_charge",
        "qos_guarantee",
        "downtime_charge",
        "group_members",
        "group_rules",
        "member_groups",
        "vm_group_slots",
        "group_constraints",
        "fingerprint",
        "compile_seconds",
    )

    def __init__(self, infrastructure: Infrastructure, request: Request) -> None:
        stopwatch = Stopwatch().start()
        self.infrastructure = infrastructure
        self.request = request
        self.n = request.n
        self.m = infrastructure.m
        self.h = infrastructure.h
        self.g = infrastructure.g

        self.p = infrastructure.p
        self.demand: FloatArray = request.demand
        self.effective_capacity: FloatArray = infrastructure.effective_capacity
        self.server_datacenter: IntArray = infrastructure.server_datacenter
        self.server_provider: IntArray = infrastructure.provider_of_server
        self.operating_cost: FloatArray = infrastructure.operating_cost
        self.usage_cost: FloatArray = infrastructure.usage_cost
        self.per_resource_rate: FloatArray = (
            infrastructure.operating_cost + infrastructure.usage_cost
        )
        self.migration_charge: FloatArray = request.migration_cost
        self.qos_guarantee: FloatArray = request.qos_guarantee
        self.downtime_charge: FloatArray = request.downtime_cost

        self.group_members: tuple[IntArray, ...] = tuple(
            np.asarray(gr.members, dtype=np.int64) for gr in request.groups
        )
        self.group_rules: tuple[PlacementRule, ...] = tuple(
            gr.rule for gr in request.groups
        )
        member_groups: list[list[int]] = [[] for _ in range(request.n)]
        vm_slots: list[list[tuple[int, int]]] = [[] for _ in range(request.n)]
        for gi, gr in enumerate(request.groups):
            for pos, member in enumerate(gr.members):
                member_groups[member].append(gi)
                vm_slots[member].append((gi, pos))
        self.member_groups: tuple[tuple[int, ...], ...] = tuple(
            tuple(ids) for ids in member_groups
        )
        self.vm_group_slots: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple(slots) for slots in vm_slots
        )
        self.group_constraints: tuple[GroupConstraint, ...] = tuple(
            GroupConstraint(gr.rule, gr.members, self.server_datacenter)
            for gr in request.groups
        )
        self.fingerprint = self.fingerprint_of(infrastructure, request)
        stopwatch.stop()
        self.compile_seconds = stopwatch.elapsed

    # ------------------------------------------------------------------
    @classmethod
    def compile(
        cls, infrastructure: Infrastructure, request: Request
    ) -> "CompiledProblem":
        """Compile one instance (prefer :class:`ProblemCache` for reuse)."""
        return cls(infrastructure, request)

    @staticmethod
    def fingerprint_of(infrastructure: Infrastructure, request: Request) -> str:
        """Content hash over every array that defines the instance."""
        digest = hashlib.blake2b(digest_size=16)
        for array in (
            infrastructure.capacity,
            infrastructure.capacity_factor,
            infrastructure.operating_cost,
            infrastructure.usage_cost,
            infrastructure.max_load,
            infrastructure.max_qos,
            infrastructure.server_datacenter,
            request.demand,
            request.qos_guarantee,
            request.downtime_cost,
            request.migration_cost,
        ):
            _feed(digest, array)
        digest.update("|".join(infrastructure.schema.names).encode())
        # The provider axis joins the hash only when a market actually
        # tagged servers: the default single-provider estate keeps its
        # pre-market fingerprint, so every cache keyed on it is stable.
        if infrastructure.p > 1:
            _feed(digest, infrastructure.provider_of_server)
        for group in request.groups:
            digest.update(group.rule.value.encode())
            digest.update(np.asarray(group.members, dtype=np.int64).tobytes())
        return digest.hexdigest()

    def matches(self, infrastructure: Infrastructure, request: Request) -> bool:
        """Cheap sanity check that a cache hit really is this instance.

        Guards against fingerprint collisions without re-hashing: shape
        and group-structure equality is enough to reject any accidental
        collision between structurally different instances.
        """
        return (
            self.m == infrastructure.m
            and self.h == infrastructure.h
            and self.p == infrastructure.p
            and self.n == request.n
            and len(self.group_rules) == len(request.groups)
            and all(
                rule is gr.rule and members.shape[0] == len(gr.members)
                for rule, members, gr in zip(
                    self.group_rules, self.group_members, request.groups
                )
            )
        )

    # ------------------------------------------------------------------
    # Per-window bindings: cheap array arithmetic, no per-group Python
    # loops — every expensive piece is reused from the compilation.
    # ------------------------------------------------------------------
    def constraint_set(
        self,
        *,
        base_usage: FloatArray | None = None,
        include_assignment: bool = True,
        qos_strict: bool = False,
    ) -> ConstraintSet:
        """A :class:`ConstraintSet` sharing this compilation's groups."""
        return ConstraintSet(
            self.infrastructure,
            self.request,
            base_usage=base_usage,
            include_assignment=include_assignment,
            qos_strict=qos_strict,
            prebuilt_groups=self.group_constraints,
        )

    def evaluator(
        self,
        *,
        base_usage: FloatArray | None = None,
        previous_assignment: IntArray | None = None,
        downtime_mode: str = "shortfall",
        per_server_operating: bool = False,
        include_assignment_constraint: bool = False,
        qos_strict: bool = False,
        energy_weight: float = 0.0,
    ) -> PopulationEvaluator:
        """A :class:`PopulationEvaluator` bound to per-window dynamics."""
        constraints = self.constraint_set(
            base_usage=base_usage,
            include_assignment=include_assignment_constraint,
            qos_strict=qos_strict,
        )
        return PopulationEvaluator(
            self.infrastructure,
            self.request,
            base_usage=base_usage,
            previous_assignment=previous_assignment,
            downtime_mode=downtime_mode,
            per_server_operating=per_server_operating,
            include_assignment_constraint=include_assignment_constraint,
            qos_strict=qos_strict,
            energy_weight=energy_weight,
            constraints=constraints,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledProblem(n={self.n}, m={self.m}, h={self.h}, "
            f"groups={len(self.group_rules)}, fingerprint={self.fingerprint[:8]}...)"
        )
