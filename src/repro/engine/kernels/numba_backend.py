"""The optional numba backend (auto-detected at import).

Importing this module is always safe: when numba is not installed,
:data:`HAVE_NUMBA` is ``False`` and :class:`NumbaKernel` refuses to
construct.  The registry in :mod:`repro.engine.kernels` only offers
the backend when the import succeeded, and ``REPRO_KERNEL=auto``
falls back to the numpy backend otherwise.

Bit-identity notes:

* the ``@njit`` scatter/usage kernels loop genes **serially inside
  each row** (``prange`` only across rows), preserving the reference
  accumulation order, so float64 usage tiles match bitwise;
* violation counting is integer arithmetic — exact by construction;
* the Eq. 24 QoS tile delegates to the numpy backend: transcendental
  functions (``exp``) compiled by LLVM are not guaranteed to round
  identically to numpy's SIMD loops, and the conformance contract
  (``verify --check kernels``) demands bitwise equality across every
  backend pair.  The integer and scatter kernels are where the
  population-scale wins live; the QoS tile is already one fused numpy
  pass.
"""

from __future__ import annotations

import numpy as np

from repro.engine.kernels.base import GroupLayout, Kernel
from repro.engine.kernels.numpy_backend import NumpyKernel
from repro.types import BoolArray, FloatArray, IntArray

__all__ = ["HAVE_NUMBA", "NUMBA_VERSION", "NumbaKernel"]

try:  # pragma: no cover - exercised only where numba is installed
    import numba
    from numba import njit, prange

    HAVE_NUMBA = True
    NUMBA_VERSION: str | None = numba.__version__
except ImportError:  # pragma: no cover - the common case in this repo
    HAVE_NUMBA = False
    NUMBA_VERSION = None


if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed

    @njit(cache=True)
    def _scatter_usage(servers, demand_rows, m):
        k, h = demand_rows.shape
        usage = np.zeros((m, h))
        for i in range(k):
            s = servers[i]
            for a in range(h):
                usage[s, a] += demand_rows[i, a]
        return usage

    @njit(parallel=True, cache=True)
    def _batch_usage(population, demand, m):
        pop, n = population.shape
        h = demand.shape[1]
        usage = np.zeros((pop, m, h))
        for r in prange(pop):
            for k in range(n):
                s = population[r, k]
                if s >= 0:
                    for a in range(h):
                        usage[r, s, a] += demand[k, a]
        return usage

    @njit(parallel=True, cache=True)
    def _batch_active(population, m):
        pop, n = population.shape
        active = np.zeros((pop, m), dtype=np.bool_)
        for r in prange(pop):
            for k in range(n):
                s = population[r, k]
                if s >= 0:
                    active[r, s] = True
        return active

    @njit(parallel=True, cache=True)
    def _batch_over_counts(usage, threshold):
        pop, m, h = usage.shape
        out = np.zeros(pop, dtype=np.int64)
        for r in prange(pop):
            count = 0
            for j in range(m):
                for a in range(h):
                    if usage[r, j, a] > threshold[j, a]:
                        count += 1
            out[r] = count
        return out

    @njit(parallel=True, cache=True)
    def _batch_group_violations(
        population, members, offsets, counts_distinct, uses_dc, dc_of, max_group
    ):
        pop = population.shape[0]
        n_groups = offsets.shape[0] - 1
        out = np.zeros(pop, dtype=np.int64)
        for r in prange(pop):
            buf = np.empty(max_group, dtype=np.int64)
            total = 0
            for g in range(n_groups):
                count = 0
                for t in range(offsets[g], offsets[g + 1]):
                    gene = population[r, members[t]]
                    if gene >= 0:
                        buf[count] = dc_of[gene] if uses_dc[g] else gene
                        count += 1
                if count <= 1:
                    continue
                keys = np.sort(buf[:count])
                distinct = 1
                for i in range(1, count):
                    if keys[i] != keys[i - 1]:
                        distinct += 1
                if counts_distinct[g]:
                    total += distinct - 1
                else:
                    total += count - distinct
            out[r] = total
        return out

    @njit(cache=True)
    def _row_over(row, thresholds):
        count = 0
        for a in range(row.shape[0]):
            if row[a] > thresholds[a]:
                count += 1
        return count


class NumbaKernel(Kernel):  # pragma: no cover - exercised only with numba
    """``@njit`` scatter/count kernels over the numpy QoS tile."""

    name = "numba"
    vectorized_groups = True

    def __init__(self) -> None:
        if not HAVE_NUMBA:
            raise RuntimeError("numba is not installed; use REPRO_KERNEL=numpy")
        self._qos = NumpyKernel()

    def scatter_usage(
        self, servers: IntArray, demand_rows: FloatArray, m: int
    ) -> FloatArray:
        return _scatter_usage(
            np.ascontiguousarray(servers, dtype=np.int64),
            np.ascontiguousarray(demand_rows, dtype=np.float64),
            m,
        )

    def batch_usage(
        self, population: IntArray, demand: FloatArray, m: int
    ) -> FloatArray:
        return _batch_usage(
            np.ascontiguousarray(population, dtype=np.int64),
            np.ascontiguousarray(demand, dtype=np.float64),
            m,
        )

    def batch_active(self, population: IntArray, m: int) -> BoolArray:
        return _batch_active(
            np.ascontiguousarray(population, dtype=np.int64), m
        )

    def batch_over_counts(
        self, usage: FloatArray, threshold: FloatArray
    ) -> IntArray:
        usage = np.ascontiguousarray(usage, dtype=np.float64)
        threshold = np.ascontiguousarray(threshold, dtype=np.float64)
        return _batch_over_counts(usage, threshold)

    def batch_group_violations(
        self, population: IntArray, layout: GroupLayout
    ) -> IntArray:
        sizes = np.diff(layout.offsets)
        max_group = int(sizes.max()) if sizes.size else 1
        return _batch_group_violations(
            np.ascontiguousarray(population, dtype=np.int64),
            layout.members,
            layout.offsets,
            layout.counts_distinct,
            layout.uses_datacenter,
            layout.server_datacenter,
            max_group,
        )

    def server_min_qos(
        self,
        usage: FloatArray,
        base_usage: FloatArray,
        capacity: FloatArray,
        max_load: FloatArray,
        max_qos: FloatArray,
    ) -> FloatArray:
        return self._qos.server_min_qos(
            usage, base_usage, capacity, max_load, max_qos
        )

    @staticmethod
    def row_over(row: FloatArray, thresholds: FloatArray) -> int:
        """Over-threshold cells of one length-h row (incremental delta)."""
        return int(_row_over(row, thresholds))
