"""The reference kernel: the conformance anchor and the base class.

A *kernel* is the set of array primitives under the evaluation/repair
hot path: scatter demand onto servers, build the population usage
tensor, count over-capacity cells, count group-rule violations, price
the QoS curve.  The numpy kernel must produce results **identical** to
:class:`ReferenceKernel` — bitwise for integers and usage tiles, and
bitwise for the float objective math too, because it is required to
perform the same per-element float operations in the same
accumulation order (the property ``verify --check kernels`` enforces
on fuzzed instances; see ``docs/PERFORMANCE.md``).

:class:`ReferenceKernel` *is* the original code path of each call site
(``np.add.at`` scatters, per-attribute ``bincount`` tiles, one Python
iteration per placement group).  It stays the conformance anchor: the
numpy kernel is correct exactly when it matches it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.placement import UNPLACED
from repro.types import BoolArray, FloatArray, IntArray

__all__ = ["GroupLayout", "ReferenceKernel"]


#: Rule name -> (counts_distinct, uses_datacenter).  ``counts_distinct``
#: rules charge ``max(distinct - 1, 0)``; the others charge
#: ``placed - distinct`` (collision count).
_RULE_TABLE = {
    "same_server": (True, False),
    "same_datacenter": (True, True),
    "different_servers": (False, False),
    "different_datacenters": (False, True),
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
    def build(constraints, server_datacenter: IntArray, m: int) -> "GroupLayout | None":
        """Layout for a sequence of built-in group constraints.

        Returns ``None`` when any constraint is not one of the four
        built-in rules (third-party extensions keep their own
        ``batch_violations``) or when there are no groups.
        """
        if not constraints:
            return None
        members_parts: list[np.ndarray] = []
        counts_distinct: list[bool] = []
        uses_datacenter: list[bool] = []
        for constraint in constraints:
            entry = _RULE_TABLE.get(getattr(constraint, "name", None))
            idx = getattr(constraint, "_idx", None)
            if entry is None or idx is None:
                return None
            members_parts.append(np.asarray(idx, dtype=np.int64))
            counts_distinct.append(entry[0])
            uses_datacenter.append(entry[1])
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
            counts_distinct=np.asarray(counts_distinct, dtype=bool),
            uses_datacenter=np.asarray(uses_datacenter, dtype=bool),
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
    #: Whether :meth:`batch_group_violations` is implemented (the
    #: reference kernel scores groups through the constraint objects
    #: instead, preserving the original per-group code path).
    vectorized_groups = False

    def scatter_usage(
        self, servers: IntArray, demand_rows: FloatArray, m: int
    ) -> FloatArray:
        """Accumulate ``demand_rows`` (k, h) onto ``servers`` (k,) -> (m, h).

        Callers pass only *placed* genes; duplicate servers accumulate
        in input order (the bit-identity contract).
        """
        usage = np.zeros((m, demand_rows.shape[1]), dtype=np.float64)
        np.add.at(usage, servers, demand_rows)
        return usage

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
        """Group-rule violations per row and group -> (pop, G) int64."""
        raise NotImplementedError(
            f"{self.name} kernel does not vectorize group scoring"
        )

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
