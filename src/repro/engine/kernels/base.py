"""The reference kernel: the conformance anchor and the base class.

A *kernel* is the set of array primitives under the evaluation/repair
hot path: build the population usage tensor, count over-capacity
cells, count group-rule violations, price the QoS curve.  The numpy
kernel must produce results **identical** to
:class:`ReferenceKernel` — bitwise for integers and usage tiles, and
bitwise for the float objective math too, because it is required to
perform the same per-element float operations in the same
accumulation order (the property ``verify --check kernels`` enforces
on fuzzed instances; see ``docs/PERFORMANCE.md``).

:class:`ReferenceKernel` *is* the original code path of each call site
(per-attribute ``bincount`` tiles, one
:func:`~repro.constraints.groups.group_violations` call per placement
group and row).  It stays the conformance anchor: the numpy kernel is
correct exactly when it matches it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.placement import UNPLACED
from repro.types import BoolArray, FloatArray, IntArray, PlacementRule

__all__ = ["GroupLayout", "ReferenceKernel"]


#: Rule -> (counts_distinct, uses_datacenter).  ``counts_distinct``
#: rules charge ``max(distinct - 1, 0)``; the others charge
#: ``placed - distinct`` (collision count).
_RULE_TABLE = {
    PlacementRule.SAME_SERVER: (True, False),
    PlacementRule.SAME_DATACENTER: (True, True),
    PlacementRule.DIFFERENT_SERVERS: (False, False),
    PlacementRule.DIFFERENT_DATACENTERS: (False, True),
}


@dataclass(frozen=True)
class GroupLayout:
    """Flattened index structure over all placement groups of an instance.

    Concatenating every group's member array lets a backend score all
    groups of a whole population in one pass instead of one Python
    iteration per group.  Built once per constraint set (the groups are
    immutable per instance) by :meth:`build`.
    """

    #: (T,) concatenated member VM indices, in group order.
    members: IntArray
    #: (T,) group id of each entry (non-decreasing).
    segments: IntArray
    #: (G + 1,) start offset of each group inside :attr:`members`.
    offsets: IntArray
    #: (G,) the rule of each group.
    rules: tuple[PlacementRule, ...]
    #: (G,) True where the rule charges ``max(distinct - 1, 0)``.
    counts_distinct: BoolArray
    #: (G,) True where keys are datacenters instead of servers.
    uses_datacenter: BoolArray
    #: (m,) server -> datacenter map.
    server_datacenter: IntArray
    #: Composite-key radix: strictly greater than any location key; the
    #: value ``radix - 1`` is the unplaced sentinel.
    radix: int

    @property
    def n_groups(self) -> int:
        """Number of placement groups in the layout."""
        return int(self.offsets.shape[0] - 1)

    @staticmethod
    def build(groups, server_datacenter: IntArray, m: int) -> "GroupLayout":
        """Layout for a non-empty sequence of placement groups — anything
        with a ``rule`` and ``members``, such as
        :class:`~repro.constraints.groups.GroupConstraint`."""
        members_parts = [np.asarray(group.members, dtype=np.int64) for group in groups]
        rules = tuple(group.rule for group in groups)
        sizes = np.array([part.shape[0] for part in members_parts], dtype=np.int64)
        offsets = np.zeros(sizes.shape[0] + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        segments = np.repeat(
            np.arange(sizes.shape[0], dtype=np.int64), sizes
        )
        server_datacenter = np.asarray(server_datacenter, dtype=np.int64)
        max_dc = int(server_datacenter.max()) if server_datacenter.size else 0
        radix = max(int(m), max_dc + 1) + 1
        return GroupLayout(
            members=np.concatenate(members_parts),
            segments=segments,
            offsets=offsets,
            rules=rules,
            counts_distinct=np.array([_RULE_TABLE[rule][0] for rule in rules], dtype=bool),
            uses_datacenter=np.array([_RULE_TABLE[rule][1] for rule in rules], dtype=bool),
            server_datacenter=server_datacenter,
            radix=radix,
        )


class ReferenceKernel:
    """The pre-kernel-layer code paths, verbatim — the conformance anchor.

    Also the base class of the faster kernel, which overrides only the
    primitives it speeds up.  Shapes: populations are ``(pop, n)``
    int64 genome matrices (values in ``[0, m)`` or :data:`UNPLACED`),
    demand is the request's ``(n, h)`` float64 matrix, usage tensors
    are ``(pop, m, h)``.
    """

    name = "reference"

    def batch_usage(
        self, population: IntArray, demand: FloatArray, m: int
    ) -> FloatArray:
        """Population usage tensor (pop, m, h); UNPLACED genes contribute 0."""
        pop, n = population.shape
        h = demand.shape[1]
        mask = population != UNPLACED
        # Route unplaced genes to a scratch bucket at index m.
        servers = np.where(mask, population, m)
        flat = (np.arange(pop)[:, None] * (m + 1) + servers).ravel()
        usage = np.empty((pop, m, h))
        for col in range(h):
            weights = np.broadcast_to(demand[:, col], (pop, n)).ravel()
            counts = np.bincount(flat, weights=weights, minlength=pop * (m + 1))
            usage[:, :, col] = counts.reshape(pop, m + 1)[:, :m]
        return usage

    def batch_active(self, population: IntArray, m: int) -> BoolArray:
        """(pop, m) mask of servers hosting >= 1 placed gene per row."""
        pop = population.shape[0]
        mask = population != UNPLACED
        servers = np.where(mask, population, m)
        flat = (np.arange(pop)[:, None] * (m + 1) + servers).ravel()
        counts = np.bincount(flat, minlength=pop * (m + 1))
        return counts.reshape(pop, m + 1)[:, :m] > 0

    def batch_over_counts(
        self, usage: FloatArray, threshold: FloatArray
    ) -> IntArray:
        """Per-row count of cells with ``usage > threshold`` -> (pop,) int64."""
        over = usage > threshold
        return over.sum(axis=tuple(range(1, over.ndim))).astype(np.int64)

    def batch_group_violations(
        self, population: IntArray, layout: GroupLayout
    ) -> IntArray:
        """Group-rule violations per row and group -> (pop, G) int64:
        one :func:`~repro.constraints.groups.group_violations` call each."""
        # Late import: repro.constraints sits above the kernel layer
        # (its modules import this package).
        from repro.constraints.groups import group_violations

        rows = population.tolist()
        datacenter = layout.server_datacenter.tolist()
        out = np.zeros((len(rows), layout.n_groups), dtype=np.int64)
        for g, rule in enumerate(layout.rules):
            members = layout.members[layout.offsets[g] : layout.offsets[g + 1]].tolist()
            for r, row in enumerate(rows):
                out[r, g] = group_violations(rule, [row[k] for k in members], datacenter)
        return out

    def server_min_qos(
        self,
        usage: FloatArray,
        base_usage: FloatArray,
        capacity: FloatArray,
        max_load: FloatArray,
        max_qos: FloatArray,
    ) -> FloatArray:
        """Worst-attribute QoS per server for a (..., m, h) usage array.

        Eq. 25 loads then Eq. 24 QoS, minimum over attributes — exactly
        the float ops of :func:`repro.objectives.qos.loads_from_usage`
        and :func:`repro.objectives.qos.qos_from_load`.
        """
        # Late import: objectives.qos sits above the kernel layer in the
        # package graph (objectives.* modules import this package).
        from repro.objectives.qos import loads_from_usage, qos_from_load

        load = loads_from_usage(usage + base_usage, capacity)
        qos = qos_from_load(load, max_load, max_qos)
        return qos.min(axis=-1)
