"""repro.engine.kernels — the array primitives under the evaluation hot path.

Every usage tile, violation count and QoS tile on the evaluation/repair
hot path dispatches through :func:`active_kernel`, one of two
bit-identical kernels:

``numpy``
    Per-attribute ``np.bincount`` tiles, single-pass composite-key
    group scoring, an in-place one-tile QoS — no per-row or per-group
    Python loop anywhere.  Every allocation runs it.
``reference``
    The original code paths (per-attribute bincount tiles, one
    :func:`~repro.constraints.groups.group_violations` call per
    placement group and row).  Slow,
    obviously correct, and the anchor the differential checker
    (``python -m repro verify --check kernels``) compares against.

:func:`use_kernel` switches the process to the reference inside one
scope, so verification, tests and ``benchmarks/bench_kernels.py`` can
run the whole evaluation stack on it.  Worker processes of the
parallel engine are not told which kernel their parent uses: both
produce the same bytes, so the repair fan-out's output cannot depend
on it.

Telemetry: per-op counters would swamp the metrics lock on µs-scale
calls, so hot paths stay uncounted (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.engine.kernels.base import GroupLayout, ReferenceKernel
from repro.engine.kernels.numpy_backend import NumpyKernel

__all__ = [
    "GroupLayout",
    "ReferenceKernel",
    "NumpyKernel",
    "active_kernel",
    "use_kernel",
]

#: The kernels by name (kernels are stateless).
_KERNELS: dict[str, ReferenceKernel] = {
    "reference": ReferenceKernel(),
    "numpy": NumpyKernel(),
}

#: The kernel every hot-path call site dispatches to.
_ACTIVE: ReferenceKernel = _KERNELS["numpy"]


def active_kernel() -> ReferenceKernel:
    """The kernel every hot-path call site dispatches to."""
    return _ACTIVE


@contextmanager
def use_kernel(name: str) -> Iterator[ReferenceKernel]:
    """Run on the ``"reference"`` or ``"numpy"`` kernel inside the scope."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = _KERNELS[name]
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
