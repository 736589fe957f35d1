"""The vectorized numpy backend.

Same results as :class:`~repro.engine.kernels.base.ReferenceKernel`
bit for bit, reached by different routes:

* a population tile takes one bincount per attribute over a
  ``(row, server)`` cell index and writes each plane into a C-ordered
  ``(pop, m, h)`` result, so no temporary outgrows the ``(pop, n)``
  genome matrix; bincount accumulates duplicate indices in input
  order, so the float64 sums are identical;
* all placement groups of an instance are scored in **one** pass over
  a composite-key sort (integer arithmetic — exact) instead of one
  Python call per group and row;
* the QoS primitive computes Eq. 25 loads and the Eq. 24 decay in
  place in one float tile, with the reference's operations on every
  cell.  The reference selects ``max_qos`` below the knee; there the
  decay's argument clamps to 0, and ``max_qos * exp(0)`` is
  ``max_qos`` exactly;
* the worst attribute per server is a chain of column-wise
  ``np.minimum`` calls instead of a reduction over the last axis.  A
  minimum returns one of its operands, and QoS values are never NaN
  or negative zero, so the order does not change the result.
"""

from __future__ import annotations

import numpy as np

from repro.engine.kernels.base import GroupLayout, ReferenceKernel
from repro.model.placement import UNPLACED
from repro.types import FloatArray, IntArray

__all__ = ["NumpyKernel"]


class NumpyKernel(ReferenceKernel):
    """Per-attribute bincount tiles + single-pass group scoring.

    The kernel every allocation runs; it inherits ``batch_active``
    from the reference unchanged.
    """

    name = "numpy"

    def batch_usage(
        self, population: IntArray, demand: FloatArray, m: int
    ) -> FloatArray:
        """One bincount per attribute over a ``(row, server)`` cell index."""
        pop = population.shape[0]
        h = demand.shape[1]
        # Each row owns m + 1 buckets.  Offsetting genes by one sends
        # UNPLACED (-1) to the row's bucket 0, a scratch bucket the
        # tile drops, with no mask over the population.
        cells = (
            population + np.arange(1, pop * (m + 1) + 1, m + 1)[:, None]
        ).ravel()
        usage = np.empty((pop, m, h), dtype=np.float64)
        weights = np.empty(population.shape, dtype=np.float64)
        for col in range(h):
            weights[:] = demand[:, col]
            counts = np.bincount(
                cells, weights=weights.ravel(), minlength=pop * (m + 1)
            )
            usage[:, :, col] = counts.reshape(pop, m + 1)[:, 1:]
        return usage

    def batch_over_counts(
        self, usage: FloatArray, threshold: FloatArray
    ) -> IntArray:
        """``np.count_nonzero`` over the over-threshold mask."""
        over = usage > threshold
        axes = tuple(range(1, over.ndim))
        return np.count_nonzero(over, axis=axes).astype(np.int64)

    def batch_group_violations(
        self, population: IntArray, layout: GroupLayout
    ) -> IntArray:
        """Every group of every row in one composite-key sort."""
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
        return violations.astype(np.int64, copy=False)

    def server_min_qos(
        self,
        usage: FloatArray,
        base_usage: FloatArray,
        capacity: FloatArray,
        max_load: FloatArray,
        max_qos: FloatArray,
    ) -> FloatArray:
        """Loads and QoS in place in one tile, then a column-wise minimum."""
        # The call's one full-size float tile: it holds the Eq. 25
        # loads, then is turned in place into the Eq. 24 QoS.
        tile = np.add(usage, base_usage, order="C")
        if (capacity > 0).all():
            np.divide(tile, capacity, out=tile)
        else:
            unbounded = (capacity <= 0) & (tile > 0)
            np.divide(tile, np.where(capacity > 0, capacity, 1.0), out=tile)
            tile[unbounded] = np.inf
        # The reference's decay on every cell.  Below the knee the
        # argument clamps to 0 and max_qos * exp(0) is max_qos exactly,
        # the value the reference selects there.
        np.subtract(max_load, tile, out=tile)
        np.divide(tile, 1.0 - max_load, out=tile)
        np.minimum(0.0, tile, out=tile)
        np.exp(tile, out=tile)
        np.multiply(max_qos, tile, out=tile)
        # Column-wise minimum over the attribute axis: a reduction over
        # a 3-wide last axis runs one short inner loop per server.
        worst = tile[..., 0].copy()
        for col in range(1, tile.shape[-1]):
            np.minimum(worst, tile[..., col], out=worst)
        return worst
