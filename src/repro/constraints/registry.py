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

from repro.constraints.affinity import (
    SameDatacenterConstraint,
    SameServerConstraint,
)
from repro.constraints.anti_affinity import (
    DifferentDatacentersConstraint,
    DifferentServersConstraint,
)
from repro.constraints.assignment import AssignmentConstraint
from repro.constraints.base import Constraint
from repro.constraints.capacity import CapacityConstraint
from repro.engine.kernels import active_kernel
from repro.errors import UnknownRuleError
from repro.model.infrastructure import Infrastructure
from repro.model.request import PlacementGroup, Request
from repro.types import FloatArray, IntArray, PlacementRule

__all__ = ["ConstraintSet", "make_group_constraint"]


def make_group_constraint(
    group: PlacementGroup, infrastructure: Infrastructure
) -> Constraint:
    """Instantiate the concrete constraint for one placement rule."""
    rule = group.rule
    if rule is PlacementRule.SAME_SERVER:
        return SameServerConstraint(group.members)
    if rule is PlacementRule.SAME_DATACENTER:
        return SameDatacenterConstraint(group.members, infrastructure)
    if rule is PlacementRule.DIFFERENT_SERVERS:
        return DifferentServersConstraint(group.members)
    if rule is PlacementRule.DIFFERENT_DATACENTERS:
        return DifferentDatacentersConstraint(group.members, infrastructure)
    raise UnknownRuleError(f"unhandled placement rule: {rule!r}")


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
    #: Group constraint objects compiled once per instance (see
    #: :class:`repro.engine.CompiledProblem`); groups are stateless
    #: w.r.t. per-window dynamics, so sharing them is safe.
    prebuilt_groups: tuple[Constraint, ...] | None = None

    def __post_init__(self) -> None:
        self.capacity = CapacityConstraint(
            self.infrastructure, self.request.demand, base_usage=self.base_usage
        )
        if self.prebuilt_groups is not None:
            self.group_constraints: tuple[Constraint, ...] = self.prebuilt_groups
        else:
            self.group_constraints = tuple(
                make_group_constraint(gr, self.infrastructure)
                for gr in self.request.groups
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
        self._group_layout = None
        self._group_layout_built = False

    # ------------------------------------------------------------------
    def group_layout(self):
        """Flattened group-index layout for the vectorized numpy kernel.

        Built lazily and cached (the groups are immutable per instance).
        ``None`` when any group constraint is not one of the four
        built-in rules — those score through their own
        ``batch_violations`` instead.
        """
        if not self._group_layout_built:
            from repro.engine.kernels import GroupLayout

            self._group_layout = GroupLayout.build(
                self.group_constraints,
                self.infrastructure.server_datacenter,
                self.infrastructure.m,
            )
            self._group_layout_built = True
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
    def violations(self, assignment: IntArray) -> int:
        """Total violation count across all constraints for one genome."""
        return sum(c.violations(assignment) for c in self.all_constraints)

    def breakdown(self, assignment: IntArray) -> dict[str, int]:
        """Violations keyed by constraint name (names may repeat → summed)."""
        out: dict[str, int] = {}
        for c in self.all_constraints:
            out[c.name] = out.get(c.name, 0) + c.violations(assignment)
        return out

    def is_feasible(self, assignment: IntArray) -> bool:
        """True iff every constraint is satisfied."""
        for c in self.all_constraints:
            if c.violations(assignment) > 0:
                return False
        return True

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
        request's group order).  The active kernel scores every group in
        one pass when it vectorizes them, else each constraint scores its
        own column — integer counts, identical either way.
        """
        population = np.asarray(population, dtype=np.int64)
        kernel = active_kernel()
        layout = (
            self.group_layout()
            if kernel.vectorized_groups and self.group_constraints
            else None
        )
        if layout is not None:
            return kernel.batch_group_violations(population, layout)
        columns = np.zeros(
            (population.shape[0], len(self.group_constraints)), dtype=np.int64
        )
        for column, constraint in enumerate(self.group_constraints):
            columns[:, column] = constraint.batch_violations(population)
        return columns

    def batch_feasible(self, population: IntArray) -> np.ndarray:
        """Boolean feasibility mask per individual."""
        return self.batch_violations(population) == 0

    def batch_breakdown(self, population: IntArray) -> dict[str, IntArray]:
        """Per-constraint-name violation vectors for a population."""
        population = np.asarray(population, dtype=np.int64)
        out: dict[str, IntArray] = {}
        for c in self.all_constraints:
            counts = c.batch_violations(population)
            if c.name in out:
                out[c.name] = out[c.name] + counts
            else:
                out[c.name] = counts
        return out
