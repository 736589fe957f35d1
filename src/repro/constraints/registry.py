"""ConstraintSet: everything an (infrastructure, request) pair implies.

The paper evaluates "each constraint (capacities constraint, affinity
and anti-affinity constraints) ... during the evaluation process"
(Fig. 3).  :class:`ConstraintSet` is that evaluation step: it owns the
capacity constraint, one group constraint per consumer placement rule,
and (optionally) the assignment constraint, and produces per-individual
and per-population violation counts plus the per-constraint breakdown
reported in Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constraints.assignment import AssignmentConstraint
from repro.constraints.base import Constraint
from repro.constraints.capacity import CapacityConstraint
from repro.constraints.groups import GroupConstraint
from repro.engine.kernels import GroupLayout, active_kernel
from repro.model.infrastructure import Infrastructure
from repro.model.request import Request
from repro.types import FloatArray, IntArray

__all__ = ["ConstraintSet"]


@dataclass
class ConstraintSet:
    """All hard constraints of one allocation problem instance.

    Parameters
    ----------
    infrastructure, request:
        The problem instance.
    base_usage:
        Committed usage from earlier windows (shrinks capacity).
    include_assignment:
        Whether to include Eq. 5's unplaced-gene check.  EAs evolve
        fully placed genomes, so they usually disable it; greedy
        algorithms that may leave resources unplaced keep it on.
    """

    infrastructure: Infrastructure
    request: Request
    base_usage: FloatArray | None = None
    include_assignment: bool = True
    qos_strict: bool = False
    #: Group constraints compiled once per instance (see
    #: :class:`repro.engine.CompiledProblem`); groups are stateless
    #: w.r.t. per-window dynamics, so sharing them is safe.
    prebuilt_groups: tuple[GroupConstraint, ...] | None = None

    def __post_init__(self) -> None:
        self.capacity = CapacityConstraint(
            self.infrastructure, self.request.demand, base_usage=self.base_usage
        )
        if self.prebuilt_groups is not None:
            self.group_constraints: tuple[GroupConstraint, ...] = self.prebuilt_groups
        else:
            self.group_constraints = tuple(
                GroupConstraint(
                    group.rule, group.members, self.infrastructure.server_datacenter
                )
                for group in self.request.groups
            )
        self.assignment: AssignmentConstraint | None = (
            AssignmentConstraint(self.request.n) if self.include_assignment else None
        )
        self.load_cap = None
        if self.qos_strict:
            from repro.constraints.load_cap import LoadCapConstraint

            self.load_cap = LoadCapConstraint(
                self.infrastructure, self.request.demand, base_usage=self.base_usage
            )
        self._group_layout: GroupLayout | None = None

    # ------------------------------------------------------------------
    def group_layout(self) -> GroupLayout | None:
        """Flattened group-index layout the kernels score groups over.

        Built lazily and cached (the groups are immutable per
        instance); ``None`` when the request has no groups.
        """
        if self._group_layout is None and self.group_constraints:
            self._group_layout = GroupLayout.build(
                self.group_constraints,
                self.infrastructure.server_datacenter,
                self.infrastructure.m,
            )
        return self._group_layout

    # ------------------------------------------------------------------
    @property
    def all_constraints(self) -> tuple[Constraint, ...]:
        """Capacity first, then groups, then the optional extras."""
        cons: tuple[Constraint, ...] = (self.capacity, *self.group_constraints)
        if self.load_cap is not None:
            cons = (*cons, self.load_cap)
        if self.assignment is not None:
            cons = (*cons, self.assignment)
        return cons

    def __len__(self) -> int:
        return len(self.all_constraints)

    # ------------------------------------------------------------------
    # One genome: row 0 of a batch of one.
    # ------------------------------------------------------------------
    def violations(self, assignment: IntArray) -> int:
        """Total constraint violations of one genome."""
        return int(self.batch_violations(np.asarray(assignment)[None, :])[0])

    def breakdown(self, assignment: IntArray) -> dict[str, int]:
        """Violations of one genome keyed by constraint name."""
        breakdown = self.batch_breakdown(np.asarray(assignment)[None, :])
        return {name: int(counts[0]) for name, counts in breakdown.items()}

    def is_feasible(self, assignment: IntArray) -> bool:
        """True iff every constraint is satisfied."""
        return self.violations(assignment) == 0

    # ------------------------------------------------------------------
    def batch_violations(
        self, population: IntArray, usage: FloatArray | None = None
    ) -> IntArray:
        """Total violations per individual, shape (pop,).

        ``usage`` is the population's usage tile when the caller already
        scored it (:meth:`CapacityConstraint.batch_usage`); it is scored
        here otherwise.  The group part sums the rows of
        :meth:`batch_group_violations`.
        """
        population = np.asarray(population, dtype=np.int64)
        capacity = self.capacity
        if usage is None:
            usage = capacity.batch_usage(population)
        total = active_kernel().batch_over_counts(usage, capacity.threshold)
        if self.group_constraints:
            total += self.batch_group_violations(population).sum(axis=1)
        for extra in (self.load_cap, self.assignment):
            if extra is not None:
                total += extra.batch_violations(population)
        return total

    def batch_group_violations(self, population: IntArray) -> IntArray:
        """Violations per individual and placement group, shape (pop, G).

        Column ``g`` counts group ``g`` of :attr:`group_constraints` (the
        request's group order), scored by the active kernel over
        :meth:`group_layout` — integer counts, identical on either
        kernel.
        """
        population = np.asarray(population, dtype=np.int64)
        layout = self.group_layout()
        if layout is None:
            return np.zeros((population.shape[0], 0), dtype=np.int64)
        return active_kernel().batch_group_violations(population, layout)

    def batch_feasible(self, population: IntArray) -> np.ndarray:
        """Boolean feasibility mask per individual."""
        return self.batch_violations(population) == 0

    def batch_breakdown(self, population: IntArray) -> dict[str, IntArray]:
        """Per-constraint-name violation vectors for a population.

        Keys follow :attr:`all_constraints` (groups of one rule share
        their rule's key and are summed).
        """
        population = np.asarray(population, dtype=np.int64)
        out: dict[str, IntArray] = {
            "capacity": self.capacity.batch_violations(population)
        }
        groups = self.batch_group_violations(population)
        for column, constraint in enumerate(self.group_constraints):
            out[constraint.name] = out.get(constraint.name, 0) + groups[:, column]
        for extra in (self.load_cap, self.assignment):
            if extra is not None:
                out[extra.name] = extra.batch_violations(population)
        return out
