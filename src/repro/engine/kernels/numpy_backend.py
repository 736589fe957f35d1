"""The vectorized numpy backend.

Same results as :class:`~repro.engine.kernels.base.ReferenceKernel`
bit for bit, reached by different routes:

* scatters run through ``np.bincount`` (flat ``(row, server, attr)``
  indices for population tiles) instead of ``np.add.at`` — both
  accumulate duplicate indices in input order, so the float64 sums are
  identical;
* all placement groups of an instance are scored in **one** pass over
  a composite-key sort (integer arithmetic — exact) instead of one
  Python iteration per group;
* the Eq. 24 QoS decay evaluates ``exp`` only on the overloaded cells
  (the reference computes it everywhere then selects).  Per-element
  the operations and operands are identical, so the selected values
  are too;
* the worst attribute per server is a chain of column-wise
  ``np.minimum`` calls instead of a reduction over the last axis.  A
  minimum returns one of its operands, and QoS values are never NaN
  or negative zero, so the order does not change the result.
"""

from __future__ import annotations

import numpy as np

from repro.engine.kernels.base import GroupLayout, Kernel
from repro.model.placement import UNPLACED
from repro.types import BoolArray, FloatArray, IntArray

__all__ = ["NumpyKernel"]


class NumpyKernel(Kernel):
    """Flat-index bincount tiles + single-pass group scoring."""

    name = "numpy"
    vectorized_groups = True

    def scatter_usage(
        self, servers: IntArray, demand_rows: FloatArray, m: int
    ) -> FloatArray:
        h = demand_rows.shape[1]
        usage = np.empty((m, h), dtype=np.float64)
        for col in range(h):
            usage[:, col] = np.bincount(
                servers, weights=demand_rows[:, col], minlength=m
            )[:m]
        return usage

    def batch_usage(
        self, population: IntArray, demand: FloatArray, m: int
    ) -> FloatArray:
        pop, n = population.shape
        h = demand.shape[1]
        mask = population != UNPLACED
        # One flat (row, server, attr) index per gene-attribute pair;
        # unplaced genes land in a scratch server bucket at index m.
        servers = np.where(mask, population, m)
        cells = (np.arange(pop, dtype=np.int64)[:, None] * (m + 1) + servers)
        flat = (cells[:, :, None] * h + np.arange(h, dtype=np.int64)).ravel()
        weights = np.broadcast_to(demand, (pop, n, h)).ravel()
        counts = np.bincount(flat, weights=weights, minlength=pop * (m + 1) * h)
        return counts.reshape(pop, m + 1, h)[:, :m, :]

    def batch_active(self, population: IntArray, m: int) -> BoolArray:
        pop = population.shape[0]
        mask = population != UNPLACED
        servers = np.where(mask, population, m)
        flat = (np.arange(pop, dtype=np.int64)[:, None] * (m + 1) + servers).ravel()
        counts = np.bincount(flat, minlength=pop * (m + 1))
        return counts.reshape(pop, m + 1)[:, :m] > 0

    def batch_over_counts(
        self, usage: FloatArray, threshold: FloatArray
    ) -> IntArray:
        over = usage > threshold
        axes = tuple(range(1, over.ndim))
        return np.count_nonzero(over, axis=axes).astype(np.int64)

    def batch_group_violations(
        self, population: IntArray, layout: GroupLayout
    ) -> IntArray:
        pop = population.shape[0]
        if layout.n_groups == 0:
            return np.zeros(pop, dtype=np.int64)
        genes = population[:, layout.members]  # (pop, T)
        placed = genes != UNPLACED
        keys = genes
        if layout.uses_datacenter.any():
            dc_keys = layout.server_datacenter[np.where(placed, genes, 0)]
            dc_cols = layout.uses_datacenter[layout.segments]
            keys = np.where(dc_cols[None, :], dc_keys, genes)
        radix = layout.radix
        seg_base = layout.segments * radix
        # Composite key: segment-major, location-minor, with unplaced
        # entries pinned to the per-segment sentinel (radix - 1).  A row
        # sort therefore sorts within each segment independently, and
        # every position keeps its (static) segment.
        comp = seg_base[None, :] + np.where(placed, keys, radix - 1)
        comp.sort(axis=1)
        sentinel = seg_base + (radix - 1)
        placed_sorted = comp != sentinel[None, :]
        # A "start" is the first occurrence of a placed location inside
        # its segment: distinct count = number of starts per segment.
        starts = placed_sorted.copy()
        starts[:, 1:] &= comp[:, 1:] != comp[:, :-1]
        cuts = layout.offsets[:-1]
        distinct = np.add.reduceat(starts, cuts, axis=1)
        placed_counts = np.add.reduceat(placed_sorted, cuts, axis=1)
        violations = np.where(
            layout.counts_distinct[None, :],
            np.maximum(distinct - 1, 0),
            placed_counts - distinct,
        )
        return violations.sum(axis=1).astype(np.int64)

    def server_min_qos(
        self,
        usage: FloatArray,
        base_usage: FloatArray,
        capacity: FloatArray,
        max_load: FloatArray,
        max_qos: FloatArray,
    ) -> FloatArray:
        total = usage + base_usage
        if (capacity > 0).all():
            load = total / capacity
        else:
            safe = np.where(capacity > 0, capacity, 1.0)
            load = np.where((capacity <= 0) & (total > 0), np.inf, total / safe)
        qos = np.empty(load.shape, dtype=np.float64)
        qos[...] = max_qos
        # Flat indices of the overloaded cells; ``cell`` is each one's
        # (server, attribute) entry in the (m, h) knee/ceiling tables.
        over = np.flatnonzero(load > max_load)
        if over.size:
            cell = over % max_load.size
            knee = max_load.ravel()[cell]
            # Overloaded cells have load > knee, so the exp argument is
            # already <= 0 — no clamp needed (matches the reference's
            # minimum(0, .) on this subset element for element).
            qos.ravel()[over] = max_qos.ravel()[cell] * np.exp(
                (knee - load.ravel()[over]) / (1.0 - knee)
            )
        # Column-wise minimum over the attribute axis: a reduction over
        # a 3-wide last axis runs one short inner loop per server.
        worst = qos[..., 0].copy()
        for col in range(1, qos.shape[-1]):
            np.minimum(worst, qos[..., col], out=worst)
        return worst
