"""Composable invariant checkers over placements and batch outcomes.

Every allocator in the comparison — greedy, CP, LP, the evolutionary
hybrids — reports through :class:`~repro.allocator.BatchOutcome`, and
the paper's figures are only meaningful if those reports obey the
model's ground rules regardless of which algorithm produced them.
This module states the rules as small, independently runnable
*invariants*:

* ``assignment_well_formed`` — every gene is a valid server id or
  :data:`~repro.model.placement.UNPLACED`, and the dense-tensor round
  trip preserves the genome (each accepted VM hosted exactly once);
* ``capacity_respected`` — servers hosting only *accepted* requests
  never exceed effective capacity (accepted work must actually fit);
* ``group_closure`` — no accepted request has a violated
  affinity/anti-affinity group;
* ``accepted_closure`` — the outcome's accepted mask equals the mask
  recomputed from the assignment (rejection semantics of Figure 9);
* ``objective_finiteness`` — the reported objective vector is finite
  and non-negative;
* ``pareto_front_non_domination`` — a reported front is mutually
  non-dominated;
* ``energy_bound``, ``provider_capacity_closure``,
  ``preference_selection_consistency`` and
  ``brokered_front_non_domination`` — the energy term and the market
  layer's rules (see ``docs/VERIFY.md``).

Checkers receive a :class:`CheckContext` and *skip* (rather than fail)
when the context lacks what they need, so one ``run_invariants`` call
works for a bare genome, a full outcome, or a Pareto front.  A checker
that skips returns ``None`` and is left out of the report's
``checked``.  Register additional invariants with
:func:`register_invariant`; see ``docs/VERIFY.md`` for the catalog and
extension guide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.allocator import BatchOutcome, per_request_rejections
from repro.model.infrastructure import Infrastructure
from repro.model.placement import UNPLACED, Placement
from repro.model.request import Request
from repro.telemetry import get_registry
from repro.utils.pareto import dominance_matrix

__all__ = [
    "CheckContext",
    "InvariantReport",
    "InvariantViolation",
    "register_invariant",
    "run_invariants",
]


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant, with enough detail to reproduce it."""

    invariant: str
    message: str
    details: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.invariant}] {self.message}"


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of one :func:`run_invariants` sweep.

    ``checked`` lists the invariants that actually compared something
    (a checker whose context lacks what it needs returns ``None`` and
    is left out); ``violations`` the failures.
    """

    checked: tuple[str, ...]
    violations: tuple[InvariantViolation, ...]

    @property
    def ok(self) -> bool:
        """Whether every applicable invariant held."""
        return not self.violations

    def format(self) -> str:
        """Human-readable summary, one line per checked invariant."""
        broken = {v.invariant for v in self.violations}
        lines = [
            f"{'FAIL' if name in broken else 'ok  '} {name}"
            for name in self.checked
        ]
        lines.extend(f"  -> {v}" for v in self.violations)
        return "\n".join(lines)


@dataclass
class CheckContext:
    """Everything an invariant may inspect.  Only ``infrastructure`` is
    mandatory; checkers skip when a field they need is ``None``.

    Parameters
    ----------
    infrastructure:
        The provider estate the assignment refers to.
    requests:
        The window's request list (enables per-request semantics).
    merged, owner:
        The concatenated instance and resource→request map; derived
        from ``requests`` on demand when absent.
    assignment:
        Flat genome over the merged instance.
    outcome:
        A full :class:`~repro.allocator.BatchOutcome` (its assignment
        and accepted mask take precedence over the bare fields).
    accepted:
        Per-request acceptance mask of a bare ``assignment``, e.g. all
        True for committed residents; taken from ``outcome`` when given.
    base_usage:
        Committed usage from earlier windows.
    objectives:
        (3,) objective vector to sanity-check.
    front_objectives:
        (k, 3) matrix of a reported Pareto front.
    brokered:
        A :class:`~repro.market.broker.BrokeredOutcome` (enables the
        market-layer invariants).
    """

    infrastructure: Infrastructure
    requests: Sequence[Request] | None = None
    merged: Request | None = None
    owner: np.ndarray | None = None
    assignment: np.ndarray | None = None
    outcome: BatchOutcome | None = None
    accepted: np.ndarray | None = None
    base_usage: np.ndarray | None = None
    objectives: np.ndarray | None = None
    front_objectives: np.ndarray | None = None
    brokered: object | None = None

    def __post_init__(self) -> None:
        if self.outcome is not None:
            if self.assignment is None:
                self.assignment = self.outcome.assignment
            if self.accepted is None:
                self.accepted = self.outcome.accepted
            if self.objectives is None:
                self.objectives = self.outcome.objectives
        if self.merged is None and self.requests is not None:
            self.merged, self.owner = Request.concatenate(list(self.requests))

    @property
    def accepted_resources(self) -> np.ndarray | None:
        """Boolean mask over merged resources of *accepted* requests."""
        if self.accepted is None or self.owner is None:
            return None
        return np.asarray(self.accepted, dtype=bool)[self.owner]


_Checker = Callable[[CheckContext], list[InvariantViolation] | None]
_CHECKERS: dict[str, _Checker] = {}


def register_invariant(name: str):
    """Decorator adding a checker to the catalog under ``name``.

    The checker returns its violations (an empty list when the
    invariant holds), or ``None`` when the context lacks what it needs
    and it compared nothing.
    """

    def wrap(fn: _Checker):
        _CHECKERS[name] = fn
        return fn

    return wrap


# ----------------------------------------------------------------------
# The built-in catalog
# ----------------------------------------------------------------------
@register_invariant("assignment_well_formed")
def _assignment_well_formed(ctx: CheckContext) -> list[InvariantViolation] | None:
    if ctx.assignment is None:
        return None
    out: list[InvariantViolation] = []
    assignment = np.asarray(ctx.assignment, dtype=np.int64)
    m = ctx.infrastructure.m
    bad = (assignment != UNPLACED) & ((assignment < 0) | (assignment >= m))
    if np.any(bad):
        out.append(
            InvariantViolation(
                "assignment_well_formed",
                f"genes outside [0, {m}) and not UNPLACED",
                {"genes": np.flatnonzero(bad)[:8].tolist()},
            )
        )
        return out
    # Exactly-once hosting: the dense X_ijk round trip must preserve
    # the genome (from_dense rejects multiply-hosted resources).
    placement = Placement(assignment=assignment, infrastructure=ctx.infrastructure)
    back = Placement.from_dense(placement.to_dense(), ctx.infrastructure)
    if not np.array_equal(back.assignment, assignment):
        out.append(
            InvariantViolation(
                "assignment_well_formed",
                "dense tensor round trip changed the genome",
                {},
            )
        )
    return out


@register_invariant("capacity_respected")
def _capacity_respected(ctx: CheckContext) -> list[InvariantViolation] | None:
    if ctx.assignment is None or ctx.merged is None:
        return None
    accepted = ctx.accepted_resources
    assignment = np.asarray(ctx.assignment, dtype=np.int64)
    demand = ctx.merged.demand
    if accepted is None:
        # A bare genome may legitimately overload servers.
        return None
    # Accepted work must fit; rejected (violating) placements are the EA
    # baselines' documented behaviour, not an invariant break.
    assignment = np.where(accepted, assignment, UNPLACED)
    usage = np.zeros((ctx.infrastructure.m, ctx.infrastructure.h))
    mask = assignment != UNPLACED
    # Deliberately np.add.at, NOT repro.utils.scatter: the invariant
    # catalog stays independent of the code paths it audits.
    np.add.at(usage, assignment[mask], demand[mask])
    limit = ctx.infrastructure.effective_capacity.copy()
    if ctx.base_usage is not None:
        limit = limit - np.asarray(ctx.base_usage, dtype=np.float64)
    slack = 1e-9 * np.maximum(1.0, np.abs(limit))
    over = usage > limit + slack
    if np.any(over):
        servers, attrs = np.nonzero(over)
        return [
            InvariantViolation(
                "capacity_respected",
                "accepted placements overload "
                f"{np.unique(servers).size} server(s)",
                {
                    "cells": list(zip(servers[:8].tolist(), attrs[:8].tolist())),
                    "excess": (usage[over] - limit[over])[:8].tolist(),
                },
            )
        ]
    return []


@register_invariant("group_closure")
def _group_closure(ctx: CheckContext) -> list[InvariantViolation] | None:
    if ctx.assignment is None or ctx.merged is None:
        return None
    if ctx.owner is None or ctx.accepted is None:
        return None
    from repro.constraints.groups import group_violations

    out: list[InvariantViolation] = []
    accepted = ctx.accepted
    genes = np.asarray(ctx.assignment, np.int64).tolist()
    datacenter = ctx.infrastructure.server_datacenter.tolist()
    for gi, group in enumerate(ctx.merged.groups):
        owner = int(ctx.owner[group.members[0]])
        if not accepted[owner]:
            continue
        violations = group_violations(
            group.rule, [genes[k] for k in group.members], datacenter
        )
        if violations > 0:
            out.append(
                InvariantViolation(
                    "group_closure",
                    f"accepted request {owner} has violated group {gi} "
                    f"({group.rule.value}, {violations} violation(s))",
                    {"group": gi, "request": owner, "rule": group.rule.value},
                )
            )
    return out


@register_invariant("accepted_closure")
def _accepted_closure(ctx: CheckContext) -> list[InvariantViolation] | None:
    if ctx.outcome is None or ctx.merged is None or ctx.owner is None:
        return None
    from repro.constraints.registry import ConstraintSet

    cons = ConstraintSet(
        ctx.infrastructure,
        ctx.merged,
        base_usage=ctx.base_usage,
        include_assignment=True,
    )
    recomputed = ~per_request_rejections(
        np.asarray(ctx.outcome.assignment, np.int64), ctx.merged, ctx.owner, cons
    )
    if not np.array_equal(recomputed, ctx.outcome.accepted):
        drift = np.flatnonzero(recomputed != ctx.outcome.accepted)
        return [
            InvariantViolation(
                "accepted_closure",
                "outcome accepted mask disagrees with the mask recomputed "
                f"from its assignment ({drift.size} request(s))",
                {"requests": drift[:8].tolist()},
            )
        ]
    return []


@register_invariant("objective_finiteness")
def _objective_finiteness(ctx: CheckContext) -> list[InvariantViolation] | None:
    if ctx.objectives is None:
        return None
    objectives = np.asarray(ctx.objectives, dtype=np.float64)
    out: list[InvariantViolation] = []
    if not np.all(np.isfinite(objectives)):
        out.append(
            InvariantViolation(
                "objective_finiteness",
                f"objective vector has non-finite entries: {objectives.tolist()}",
                {},
            )
        )
    elif np.any(objectives < 0):
        out.append(
            InvariantViolation(
                "objective_finiteness",
                f"objective vector has negative entries: {objectives.tolist()}",
                {},
            )
        )
    return out


@register_invariant("energy_bound")
def _energy_bound(ctx: CheckContext) -> list[InvariantViolation] | None:
    if ctx.assignment is None or ctx.merged is None:
        return None
    from repro.objectives.energy import EnergyCost

    cost = EnergyCost(
        ctx.infrastructure, ctx.merged.demand, base_usage=ctx.base_usage
    )
    assignment = np.asarray(ctx.assignment, dtype=np.int64)
    accepted = ctx.accepted_resources
    if accepted is not None:
        assignment = np.where(accepted, assignment, UNPLACED)
    value = float(cost.batch(assignment[None, :])[0])
    if not np.isfinite(value) or value < 0:
        return [
            InvariantViolation(
                "energy_bound",
                f"energy term is not finite and non-negative: {value}",
                {},
            )
        ]
    # When no host is oversubscribed (loads <= 1) the linear power
    # model is capped by every host running flat out.
    usage = np.zeros((ctx.infrastructure.m, ctx.infrastructure.h))
    mask = assignment != UNPLACED
    # Independent reference scatter (see the capacity invariant above).
    np.add.at(usage, assignment[mask], ctx.merged.demand[mask])
    base = (
        np.asarray(ctx.base_usage, dtype=np.float64)
        if ctx.base_usage is not None
        else 0.0
    )
    capacity = ctx.infrastructure.effective_capacity
    loads = np.where(capacity > 0, (usage + base) / np.where(capacity > 0, capacity, 1.0), 0.0)
    ceiling = cost.upper_bound()
    if np.all(loads <= 1.0 + 1e-9) and value > ceiling * (1.0 + 1e-9):
        return [
            InvariantViolation(
                "energy_bound",
                f"energy {value} exceeds the all-hosts-at-full-load "
                f"ceiling {ceiling} despite loads <= 1",
                {"value": float(value), "ceiling": float(ceiling)},
            )
        ]
    return []


@register_invariant("pareto_front_non_domination")
def _pareto_front_non_domination(ctx: CheckContext) -> list[InvariantViolation] | None:
    if ctx.front_objectives is None:
        return None
    front = np.asarray(ctx.front_objectives, dtype=np.float64)
    if front.ndim != 2 or front.shape[0] < 2:
        return None
    dom = dominance_matrix(front)
    if np.any(dom):
        i, j = np.nonzero(dom)
        return [
            InvariantViolation(
                "pareto_front_non_domination",
                f"front point {i[0]} dominates point {j[0]}",
                {"pairs": list(zip(i[:8].tolist(), j[:8].tolist()))},
            )
        ]
    return []


@register_invariant("provider_capacity_closure")
def _provider_capacity_closure(ctx: CheckContext) -> list[InvariantViolation] | None:
    if ctx.assignment is None or ctx.merged is None:
        return None
    if ctx.infrastructure.p < 2:
        return None  # single-provider estates have nothing extra to close
    assignment = np.asarray(ctx.assignment, dtype=np.int64)
    accepted = ctx.accepted_resources
    if accepted is not None:
        assignment = np.where(accepted, assignment, UNPLACED)
    elif ctx.outcome is None:
        return None
    provider = ctx.infrastructure.provider_of_server
    usage = np.zeros((ctx.infrastructure.m, ctx.infrastructure.h))
    mask = assignment != UNPLACED
    np.add.at(usage, assignment[mask], ctx.merged.demand[mask])
    if ctx.base_usage is not None:
        usage = usage + np.asarray(ctx.base_usage, dtype=np.float64)
    out: list[InvariantViolation] = []
    for k in range(ctx.infrastructure.p):
        servers = np.flatnonzero(provider == k)
        load = usage[servers].sum(axis=0)
        ceiling = ctx.infrastructure.effective_capacity[servers].sum(axis=0)
        slack = 1e-9 * np.maximum(1.0, np.abs(ceiling))
        if np.any(load > ceiling + slack):
            out.append(
                InvariantViolation(
                    "provider_capacity_closure",
                    f"aggregate accepted load exceeds provider {k}'s "
                    "total effective capacity",
                    {
                        "provider": k,
                        "load": load.tolist(),
                        "capacity": ceiling.tolist(),
                    },
                )
            )
    return out


@register_invariant("preference_selection_consistency")
def _preference_selection_consistency(
    ctx: CheckContext,
) -> list[InvariantViolation] | None:
    if ctx.front_objectives is None:
        return None
    front = np.asarray(ctx.front_objectives, dtype=np.float64)
    if front.ndim != 2 or front.shape[0] == 0:
        return None
    from repro.objectives.preference import active_preference, select_index

    preference = active_preference()
    out: list[InvariantViolation] = []
    index = select_index(front, preference)
    if not 0 <= index < front.shape[0]:
        return [
            InvariantViolation(
                "preference_selection_consistency",
                f"selection index {index} outside the front of {front.shape[0]}",
                {},
            )
        ]
    if preference is None:
        # Independent ideal-point recomputation must agree.
        lo = front.min(axis=0)
        span = np.where(front.max(axis=0) - lo > 0, front.max(axis=0) - lo, 1.0)
        expected = int(
            np.argmin(np.sqrt((((front - lo) / span) ** 2).sum(axis=1)))
        )
        if index != expected:
            out.append(
                InvariantViolation(
                    "preference_selection_consistency",
                    "default selection drifted from the ideal-point pick "
                    f"({index} != {expected})",
                    {},
                )
            )
    else:
        # The *selected vector* must be invariant under row permutation.
        flipped = front[::-1]
        mirrored = select_index(flipped, preference)
        if not np.array_equal(front[index], flipped[mirrored]):
            out.append(
                InvariantViolation(
                    "preference_selection_consistency",
                    "selected objective vector changed under front "
                    "permutation",
                    {
                        "original": front[index].tolist(),
                        "permuted": flipped[mirrored].tolist(),
                    },
                )
            )
    return out


@register_invariant("brokered_front_non_domination")
def _brokered_front_non_domination(ctx: CheckContext) -> list[InvariantViolation] | None:
    if ctx.brokered is None:
        return None
    brokered = ctx.brokered
    out: list[InvariantViolation] = []
    front = np.asarray(brokered.front_objectives, dtype=np.float64)
    if front.shape[0] >= 2:
        dom = dominance_matrix(front)
        if np.any(dom):
            i, j = np.nonzero(dom)
            out.append(
                InvariantViolation(
                    "brokered_front_non_domination",
                    f"brokered plan {brokered.front[i[0]].route!r} dominates "
                    f"{brokered.front[j[0]].route!r} inside the front",
                    {"pairs": list(zip(i[:8].tolist(), j[:8].tolist()))},
                )
            )
    # Identity, not ==: plans hold numpy arrays, whose dataclass
    # equality is ambiguous.
    if not any(plan is brokered.deployed for plan in brokered.front):
        out.append(
            InvariantViolation(
                "brokered_front_non_domination",
                f"deployed plan {brokered.deployed.route!r} is not a front "
                "member",
                {},
            )
        )
    if any(plan.clean for plan in brokered.plans) and not all(
        plan.clean for plan in brokered.front
    ):
        out.append(
            InvariantViolation(
                "brokered_front_non_domination",
                "front contains market-violating plans although clean "
                "plans exist",
                {},
            )
        )
    return out


# ----------------------------------------------------------------------
def run_invariants(
    ctx: CheckContext, names: Sequence[str] | None = None
) -> InvariantReport:
    """Run (a subset of) the catalog over one context.

    Only checkers that compared something (did not return ``None``)
    are listed in ``checked`` and counted in ``verify.invariants.checks``;
    ``verify.invariants.violations`` counts what they found.  Both are
    labelled by invariant name.
    """
    registry = get_registry()
    checked: list[str] = []
    violations: list[InvariantViolation] = []
    for name in names if names is not None else _CHECKERS:
        found = _CHECKERS[name](ctx)
        if found is None:
            continue
        checked.append(name)
        registry.count("verify.invariants.checks", invariant=name)
        if found:
            registry.count(
                "verify.invariants.violations", len(found), invariant=name
            )
            violations.extend(found)
    return InvariantReport(checked=tuple(checked), violations=tuple(violations))
