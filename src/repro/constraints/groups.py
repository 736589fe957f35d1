"""The four placement rules, Eq. 9-12, as one constraint class.

A co-localization group (Eq. 9 same datacenter, Eq. 10 same server) is
satisfied when every *placed* member resolves to a single location;
its violations count the extra distinct locations, so a group split
across 3 servers when it must share one counts 2.  A separation group
(Eq. 11 different datacenters, Eq. 12 different servers) is satisfied
when no two placed members share a location; k members on one server
that must all differ count k-1.  Either way a repair move that fixes
one member lowers the count by one, so progress is visible to the
search.  Unplaced members are the assignment constraint's concern and
count nothing here.

:func:`group_violations` is that count for one group of one genome —
the body the tabu repair walk, :class:`~repro.engine.IncrementalEvaluator`
and the reference kernel share.  The numpy kernel counts every group
of a population in one vectorized pass
(:meth:`~repro.engine.kernels.NumpyKernel.batch_group_violations`),
held equal to it by ``python -m repro verify --check kernels``.
"""

from __future__ import annotations

import numpy as np

from repro.constraints.base import Constraint
from repro.errors import ConstraintError
from repro.model.placement import UNPLACED
from repro.model.request import PlacementGroup
from repro.types import IntArray, PlacementRule

__all__ = ["GroupConstraint", "group_violations"]


def group_violations(rule: PlacementRule, genes: list[int], server_datacenter) -> int:
    """Violation count of one placement group given its member genes.

    ``genes`` are plain ints (:data:`UNPLACED` allowed, and ignored) and
    ``server_datacenter`` maps a server id to its datacenter: distinct
    locations minus one for the co-location rules, collisions for the
    separation rules.  Groups have a handful of members, so a Python set
    beats any numpy call here.
    """
    placed = [gene for gene in genes if gene != UNPLACED]
    if len(placed) <= 1:
        return 0
    if rule is PlacementRule.SAME_SERVER:
        return len(set(placed)) - 1
    if rule is PlacementRule.DIFFERENT_SERVERS:
        return len(placed) - len(set(placed))
    datacenters = {server_datacenter[gene] for gene in placed}
    if rule is PlacementRule.SAME_DATACENTER:
        return len(datacenters) - 1
    return len(placed) - len(datacenters)


class GroupConstraint(Constraint):
    """One placement group under one of the four rules.

    Parameters
    ----------
    rule:
        The group's :class:`PlacementRule`; its value is the
        constraint's :attr:`name` (the breakdown key).
    members:
        The group's VM indices (at least two, no duplicates).
    server_datacenter:
        (m,) server -> datacenter map the datacenter rules read.
    """

    def __init__(
        self, rule: PlacementRule, members: tuple[int, ...], server_datacenter: IntArray
    ) -> None:
        group = PlacementGroup(rule, members)  # validates the members
        self.rule = group.rule
        self.members = group.members
        self.name = group.rule.value
        self.server_datacenter = server_datacenter

    def batch_violations(self, population: IntArray) -> IntArray:
        """:func:`group_violations` of every row of ``population``."""
        population = np.asarray(population, dtype=np.int64)
        if population.ndim != 2:
            raise ValueError(
                f"population must be 2-D (pop, n), got shape {population.shape}"
            )
        last = max(self.members)
        if last >= population.shape[1]:
            raise ConstraintError(
                f"group member {last} outside genome of length {population.shape[1]}"
            )
        datacenter = np.asarray(self.server_datacenter).tolist()
        rows = population[:, list(self.members)].tolist()
        return np.array(
            [group_violations(self.rule, genes, datacenter) for genes in rows],
            dtype=np.int64,
        )
