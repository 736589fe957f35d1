"""Metamorphic laws: scenario transformations with known consequences.

Heuristic allocators have no ground truth to compare against on large
instances — but the *model* still obeys exact relationships under
controlled transformations of the instance.  Each law here transforms
an (infrastructure, requests, assignment) triple and states what must
hold afterwards.  All four laws are theorems of the Section III
equations, not empirical observations about particular solvers, so a
violation always indicts the evaluation stack:

* :class:`ServerPermutationLaw` — relabelling servers (and mapping the
  genome through the same permutation) leaves violations identical and
  objectives equal up to float re-association;
* :class:`CapacityInflationLaw` — scaling every capacity by f >= 1
  never increases capacity violations, never rejects a previously
  accepted request, and leaves the usage/operating objective untouched;
* :class:`CostScalingLaw` — scaling the cost vectors E and U by f
  scales the usage/operating objective by exactly f and leaves
  downtime, migration and every violation count unchanged;
* :class:`DuplicateRequestIdempotenceLaw` — appending a duplicate of a
  request whose copies stay unplaced changes nothing: objectives and
  non-assignment violations are identical and the original requests'
  accept/reject decisions are preserved.

Laws are checked end-to-end through the public evaluation machinery
(:class:`~repro.objectives.evaluator.PopulationEvaluator`,
:func:`~repro.allocator.per_request_rejections`), so they cover the
same code every :class:`~repro.allocator.Allocator` reports through.
:func:`run_laws` returns one ``metamorphic``
:class:`~repro.verify.checks.Report`; each mismatch names its law.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.allocator import per_request_rejections
from repro.constraints.registry import ConstraintSet
from repro.model.infrastructure import Infrastructure
from repro.model.placement import UNPLACED
from repro.model.request import Request
from repro.objectives.evaluator import PopulationEvaluator
from repro.types import FloatArray, IntArray
from repro.verify.checks import Report

__all__ = [
    "ALL_LAWS",
    "CapacityInflationLaw",
    "CostScalingLaw",
    "DuplicateRequestIdempotenceLaw",
    "MetamorphicLaw",
    "ServerPermutationLaw",
    "run_laws",
]


@dataclass(frozen=True)
class LawContext:
    """The triple a law transforms, plus per-window dynamics."""

    infrastructure: Infrastructure
    requests: tuple[Request, ...]
    assignment: IntArray
    base_usage: FloatArray | None = None
    previous_assignment: IntArray | None = None

    @property
    def merged(self) -> tuple[Request, IntArray]:
        """A copy of the base allocator kwargs with ``overrides`` applied."""
        return Request.concatenate(list(self.requests))


def _evaluate(
    infrastructure: Infrastructure,
    requests: Sequence[Request],
    assignment: IntArray,
    base_usage: FloatArray | None = None,
    previous_assignment: IntArray | None = None,
):
    """(objectives, breakdown, rejected) through the reference stack."""
    merged, owner = Request.concatenate(list(requests))
    constraints = ConstraintSet(
        infrastructure, merged, base_usage=base_usage, include_assignment=True
    )
    evaluator = PopulationEvaluator(
        infrastructure,
        merged,
        base_usage=base_usage,
        previous_assignment=previous_assignment,
        include_assignment_constraint=True,
        constraints=constraints,
    )
    assignment = np.asarray(assignment, dtype=np.int64)
    objectives = evaluator.evaluate(assignment).as_array()
    breakdown = constraints.breakdown(assignment)
    rejected = per_request_rejections(assignment, merged, owner, constraints)
    return objectives, breakdown, rejected


class MetamorphicLaw(abc.ABC):
    """One transformation with a checkable consequence."""

    name: str = "law"

    @abc.abstractmethod
    def check(
        self, ctx: LawContext, rng: np.random.Generator, report: Report
    ) -> None:
        """Apply the transformation and note each consequence it must
        keep in ``report``, under the law's name."""


class ServerPermutationLaw(MetamorphicLaw):
    """Server relabelling ⇒ identical scores up to relabeling."""

    name = "server_permutation"

    def check(self, ctx, rng, report):
        """Check the law on one scenario; see :class:`MetamorphicLaw`."""
        infra = ctx.infrastructure
        perm = rng.permutation(infra.m)
        permuted = Infrastructure(
            capacity=infra.capacity[perm],
            capacity_factor=infra.capacity_factor[perm],
            operating_cost=infra.operating_cost[perm],
            usage_cost=infra.usage_cost[perm],
            max_load=infra.max_load[perm],
            max_qos=infra.max_qos[perm],
            server_datacenter=infra.server_datacenter[perm],
            schema=infra.schema,
        )
        # inverse[old_server] = new index of that server after perm.
        inverse = np.empty(infra.m, dtype=np.int64)
        inverse[perm] = np.arange(infra.m)
        assignment = np.asarray(ctx.assignment, np.int64)
        mapped = np.where(
            assignment == UNPLACED, UNPLACED, inverse[assignment]
        )
        base = None if ctx.base_usage is None else ctx.base_usage[perm]
        previous = (
            None
            if ctx.previous_assignment is None
            else np.where(
                ctx.previous_assignment == UNPLACED,
                UNPLACED,
                inverse[ctx.previous_assignment],
            )
        )

        before = _evaluate(
            infra, ctx.requests, assignment, ctx.base_usage, ctx.previous_assignment
        )
        after = _evaluate(permuted, ctx.requests, mapped, base, previous)
        report.note(
            before[1] == after[1],
            self.name,
            "breakdown",
            f"violation breakdown changed under server relabeling: "
            f"{before[1]} -> {after[1]}",
        )
        report.note(
            np.allclose(before[0], after[0], rtol=1e-9, atol=1e-9),
            self.name,
            "objectives",
            f"objective vector changed under server relabeling: "
            f"{before[0].tolist()} -> {after[0].tolist()}",
        )
        report.note(
            np.array_equal(before[2], after[2]),
            self.name,
            "rejections",
            "rejection mask changed under server relabeling",
        )


class CapacityInflationLaw(MetamorphicLaw):
    """Capacity inflation ⇒ rejections and overloads only shrink."""

    name = "capacity_inflation"

    def check(self, ctx, rng, report):
        """Check the law on one scenario; see :class:`MetamorphicLaw`."""
        factor = float(rng.uniform(1.0, 2.0))
        infra = ctx.infrastructure
        inflated = replace(infra, capacity=infra.capacity * factor)
        before = _evaluate(
            infra,
            ctx.requests,
            ctx.assignment,
            ctx.base_usage,
            ctx.previous_assignment,
        )
        after = _evaluate(
            inflated,
            ctx.requests,
            ctx.assignment,
            ctx.base_usage,
            ctx.previous_assignment,
        )
        report.note(
            after[1].get("capacity", 0) <= before[1].get("capacity", 0),
            self.name,
            "capacity",
            f"capacity violations increased under x{factor:.3f} inflation: "
            f"{before[1]} -> {after[1]}",
        )
        newly_rejected = np.flatnonzero(after[2] & ~before[2])
        report.note(
            not newly_rejected.size,
            self.name,
            "rejections",
            f"previously accepted requests {newly_rejected.tolist()} became "
            f"rejected after x{factor:.3f} capacity inflation",
        )
        report.note(
            np.isclose(after[0][0], before[0][0], rtol=1e-9),
            self.name,
            "usage_cost",
            "usage/operating cost depends on capacity (it must not): "
            f"{before[0][0]} -> {after[0][0]}",
        )


class CostScalingLaw(MetamorphicLaw):
    """Cost-coefficient scaling ⇒ proportional usage cost, rest fixed."""

    name = "cost_scaling"

    def check(self, ctx, rng, report):
        """Check the law on one scenario; see :class:`MetamorphicLaw`."""
        factor = float(rng.uniform(0.25, 4.0))
        infra = ctx.infrastructure
        scaled = replace(
            infra,
            operating_cost=infra.operating_cost * factor,
            usage_cost=infra.usage_cost * factor,
        )
        before = _evaluate(
            infra,
            ctx.requests,
            ctx.assignment,
            ctx.base_usage,
            ctx.previous_assignment,
        )
        after = _evaluate(
            scaled,
            ctx.requests,
            ctx.assignment,
            ctx.base_usage,
            ctx.previous_assignment,
        )
        report.note(
            np.isclose(after[0][0], factor * before[0][0], rtol=1e-9, atol=1e-12),
            self.name,
            "usage_cost",
            f"usage cost did not scale by x{factor:.3f}: "
            f"{before[0][0]} -> {after[0][0]}",
        )
        report.note(
            np.allclose(after[0][1:], before[0][1:], rtol=1e-9, atol=1e-12),
            self.name,
            "objectives",
            "downtime/migration objectives changed under cost scaling: "
            f"{before[0].tolist()} -> {after[0].tolist()}",
        )
        report.note(
            before[1] == after[1] and np.array_equal(before[2], after[2]),
            self.name,
            "breakdown",
            "violations or rejections changed under cost scaling: "
            f"{before[1]} -> {after[1]}",
        )


class DuplicateRequestIdempotenceLaw(MetamorphicLaw):
    """Unplaced duplicate requests ⇒ scores unchanged."""

    name = "duplicate_request_idempotence"

    def check(self, ctx, rng, report):
        """Check the law on one scenario; see :class:`MetamorphicLaw`."""
        requests = ctx.requests
        duplicated = (*requests, requests[int(rng.integers(0, len(requests)))])
        extra = duplicated[-1].n
        assignment = np.asarray(ctx.assignment, np.int64)
        extended = np.concatenate(
            [assignment, np.full(extra, UNPLACED, dtype=np.int64)]
        )
        previous = (
            None
            if ctx.previous_assignment is None
            else np.concatenate(
                [
                    np.asarray(ctx.previous_assignment, np.int64),
                    np.full(extra, UNPLACED, dtype=np.int64),
                ]
            )
        )
        before = _evaluate(
            ctx.infrastructure,
            requests,
            assignment,
            ctx.base_usage,
            ctx.previous_assignment,
        )
        after = _evaluate(
            ctx.infrastructure, duplicated, extended, ctx.base_usage, previous
        )
        report.note(
            np.allclose(after[0], before[0], rtol=1e-9, atol=1e-12),
            self.name,
            "objectives",
            "objectives changed after appending an unplaced duplicate: "
            f"{before[0].tolist()} -> {after[0].tolist()}",
        )
        before_breakdown = dict(before[1])
        after_breakdown = dict(after[1])
        before_breakdown.pop("assignment", None)
        after_breakdown.pop("assignment", None)
        report.note(
            before_breakdown == after_breakdown,
            self.name,
            "breakdown",
            "non-assignment violations changed after an unplaced duplicate "
            f"request: {before_breakdown} -> {after_breakdown}",
        )
        report.note(
            np.array_equal(before[2], after[2][: len(requests)]),
            self.name,
            "rejections",
            "original requests' rejection decisions changed",
        )
        report.note(
            np.all(after[2][len(requests) :]),
            self.name,
            "duplicate",
            "an unplaced duplicate request was reported accepted",
        )


#: The built-in laws, in documentation order.
ALL_LAWS: tuple[MetamorphicLaw, ...] = (
    ServerPermutationLaw(),
    CapacityInflationLaw(),
    CostScalingLaw(),
    DuplicateRequestIdempotenceLaw(),
)


def run_laws(
    infrastructure: Infrastructure,
    requests: Sequence[Request],
    assignment: IntArray,
    *,
    rng: np.random.Generator | None = None,
    base_usage: FloatArray | None = None,
    previous_assignment: IntArray | None = None,
    laws: Sequence[MetamorphicLaw] | None = None,
) -> Report:
    """Check every law (or ``laws``) against one placement.

    Returns one ``metamorphic`` :class:`Report`; each mismatch names its
    law in ``where``, and ``stats["laws"]`` counts the laws run.
    """
    ctx = LawContext(
        infrastructure=infrastructure,
        requests=tuple(requests),
        assignment=np.asarray(assignment, dtype=np.int64),
        base_usage=base_usage,
        previous_assignment=previous_assignment,
    )
    laws = ALL_LAWS if laws is None else laws
    report = Report(
        "metamorphic",
        f"{infrastructure.m}x{ctx.assignment.size}",
        stats={"laws": len(laws)},
    )
    rng = rng or np.random.default_rng()
    for law in laws:
        law.check(ctx, rng, report)
    return report
