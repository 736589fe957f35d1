"""repro.engine.kernels — pluggable backends for the evaluation hot path.

Three conformant backends sit behind every scatter, violation count and
QoS tile on the evaluation/repair hot path:

``reference``
    The original code paths (``np.add.at`` scatters, per-attribute
    bincount tiles, one Python iteration per placement group).  Slow,
    obviously correct, and the anchor the differential checker
    (``python -m repro verify --check kernels``) compares against.
``numpy``
    Per-attribute ``np.bincount`` tiles, single-pass composite-key
    group scoring, an in-place one-tile QoS — no per-row or per-group
    Python loop anywhere.  The default.
``numba``
    ``@njit(parallel=True)`` scatter and counting kernels; only
    offered when numba imports (see
    :mod:`repro.engine.kernels.numba_backend`).

Selection: ``REPRO_KERNEL=reference|numpy|numba|auto`` (default
``auto`` = numba when available else numpy), overridden per process by
:func:`set_kernel` (the CLI's ``--kernel`` flag) or per scope by
:func:`use_kernel`.  Every backend produces bit-identical results, so
mixing backends across processes cannot break the determinism
contracts — but the parallel engine still pins workers to the parent's
backend (see :class:`~repro.engine.parallel.RepairParams`) to keep
performance characteristics uniform.

Telemetry: ``engine.kernel.backend`` (gauge, labelled) and
``engine.kernel.selects`` land in the registry on every (re)selection;
per-op counters would swamp the metrics lock on µs-scale calls, so hot
paths stay uncounted (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.engine.kernels.base import GroupLayout, Kernel, ReferenceKernel
from repro.engine.kernels.numba_backend import (
    HAVE_NUMBA,
    NUMBA_VERSION,
    NumbaKernel,
)
from repro.engine.kernels.numpy_backend import NumpyKernel
from repro.errors import ValidationError

__all__ = [
    "GroupLayout",
    "Kernel",
    "ReferenceKernel",
    "NumpyKernel",
    "NumbaKernel",
    "HAVE_NUMBA",
    "NUMBA_VERSION",
    "KERNEL_ENV_VAR",
    "available_kernels",
    "resolve_kernel_name",
    "get_kernel",
    "active_kernel",
    "set_kernel",
    "use_kernel",
]

#: Environment variable consulted when no explicit selection was made.
KERNEL_ENV_VAR = "REPRO_KERNEL"

_FACTORIES = {
    "reference": ReferenceKernel,
    "numpy": NumpyKernel,
}
if HAVE_NUMBA:  # pragma: no cover - depends on the host environment
    _FACTORIES["numba"] = NumbaKernel

#: Singleton instance per backend (kernels are stateless).
_INSTANCES: dict[str, Kernel] = {}

#: The process-wide active backend; ``None`` means "not resolved yet"
#: (resolved lazily from the environment on first use).
_ACTIVE: Kernel | None = None


def available_kernels() -> tuple[str, ...]:
    """Backend names constructible in this process."""
    return tuple(_FACTORIES)


def resolve_kernel_name(name: str | None = None) -> str:
    """Map a requested name (or the environment) to a concrete backend.

    ``None`` reads :data:`KERNEL_ENV_VAR`; ``"auto"`` (and an unset
    variable) prefers numba when available, else numpy.  Requesting
    ``numba`` where it is not installed is an error — silent fallback
    would invalidate any benchmark claiming numba numbers.
    """
    if name is None:
        name = os.environ.get(KERNEL_ENV_VAR, "auto")
    name = name.strip().lower() or "auto"
    if name == "auto":
        return "numba" if HAVE_NUMBA else "numpy"
    if name not in _FACTORIES:
        raise ValidationError(
            f"unknown kernel backend {name!r}; available: "
            f"{', '.join((*_FACTORIES, 'auto'))}"
        )
    return name


def get_kernel(name: str | None = None) -> Kernel:
    """The (singleton) backend instance for ``name`` (see resolution rules)."""
    resolved = resolve_kernel_name(name)
    instance = _INSTANCES.get(resolved)
    if instance is None:
        instance = _FACTORIES[resolved]()
        _INSTANCES[resolved] = instance
    return instance


def active_kernel() -> Kernel:
    """The process-wide backend every hot-path call site dispatches to."""
    global _ACTIVE
    if _ACTIVE is None:
        set_kernel(None)
    return _ACTIVE


def set_kernel(name: str | None) -> Kernel:
    """Select the process-wide backend (``None`` re-reads the environment)."""
    global _ACTIVE
    _ACTIVE = get_kernel(name)
    try:
        from repro.telemetry import get_registry

        registry = get_registry()
        registry.count("engine.kernel.selects", backend=_ACTIVE.name)
        registry.gauge("engine.kernel.backend", 1.0, backend=_ACTIVE.name)
    except Exception:  # pragma: no cover - telemetry must never break selection
        pass
    return _ACTIVE


@contextmanager
def use_kernel(name: str | None) -> Iterator[Kernel]:
    """Scoped backend override (verification and benchmarks)."""
    global _ACTIVE
    previous = _ACTIVE
    kernel = set_kernel(name)
    try:
        yield kernel
    finally:
        _ACTIVE = previous
