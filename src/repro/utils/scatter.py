"""Bincount-based scatter-add helper.

``np.add.at`` is the textbook way to accumulate duplicate-index
updates, but it dispatches through the generalized ufunc machinery and
is an order of magnitude slower than ``np.bincount`` for the dense
integer-index scatters this codebase performs (demand rows onto
servers, usage onto datacenters).

Both primitives accumulate duplicate indices **in input order**, so for
float64 weights the sums are bit-identical — the property every
replacement in this repo relies on and the parity tests in
``tests/unit/test_scatter_helpers.py`` pin down.

This helper lives in ``repro.utils`` (below the model layer) so model,
analysis and scheduler code can use it without importing the engine's
kernel registry.
"""

from __future__ import annotations

import numpy as np

from repro.types import FloatArray, IntArray

__all__ = ["scatter_rows"]


def scatter_rows(index: IntArray, rows: FloatArray, length: int) -> FloatArray:
    """Sum 2-D ``rows`` into a fresh ``(length, h)`` accumulator.

    The bincount equivalent of::

        out = np.zeros((length, h)); np.add.at(out, index, rows)

    ``index`` values must lie in ``[0, length)``.
    """
    index = np.asarray(index, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError(f"rows must be 2-D, got shape {rows.shape}")
    h = rows.shape[1]
    out = np.empty((length, h), dtype=np.float64)
    for col in range(h):
        out[:, col] = np.bincount(
            index, weights=rows[:, col], minlength=length
        )[:length]
    return out

