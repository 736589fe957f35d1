"""Constraint system: Eq. 4/16 (capacity), Eq. 5/17 (assignment) and the
four affinity/anti-affinity relationships of Eq. 9-12.

Every constraint has one body, ``batch_violations(population)`` — a
vectorized count for a whole population matrix of shape ``(pop, n)``,
which is what the EA layer calls every generation — and scores one
genome as row 0 of a batch of one (``violations(assignment)``).  The
four placement rules are one class, :class:`GroupConstraint`, keyed by
:class:`~repro.types.PlacementRule`; :func:`group_violations` is the
per-group count it, the tabu repair walk and the reference kernel
share.

:class:`ConstraintSet` bundles the constraints implied by an
(infrastructure, request) pair and exposes feasibility tests, total
violation counts and per-constraint breakdowns — the quantities behind
the paper's Figure 10.
"""

from repro.constraints.base import Constraint
from repro.constraints.capacity import CapacityConstraint
from repro.constraints.assignment import AssignmentConstraint
from repro.constraints.groups import GroupConstraint, group_violations
from repro.constraints.registry import ConstraintSet

__all__ = [
    "Constraint",
    "CapacityConstraint",
    "AssignmentConstraint",
    "GroupConstraint",
    "group_violations",
    "ConstraintSet",
]
