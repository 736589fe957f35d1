"""repro.engine — compiled problem instances, their cache and the pool.

The evaluation core under the allocation stack, in four parts:

* :class:`~repro.engine.compiled.CompiledProblem` — an immutable,
  once-per-(infrastructure, request) compilation of the instance facts
  every layer needs (effective capacity, group indexes and constraint
  objects, the Eq. 22 cost rate, fingerprint);
* :class:`~repro.engine.cache.ProblemCache` — LRU reuse of
  compilations across windows and reoptimize passes, keyed by the
  instance fingerprint;
* :class:`~repro.engine.parallel.ParallelEngine` — a persistent
  worker pool that fans tabu repair out across processes with
  byte-identical results (see ``docs/PARALLEL.md``);
* :mod:`repro.engine.kernels` — the kernel layer behind the
  evaluation/repair hot path: the vectorized numpy kernel every
  allocation runs, held bit-identical to the reference kernel (the
  original numpy code paths) by ``verify --check kernels``
  (see ``docs/PERFORMANCE.md``).

See ``docs/ENGINE.md`` for the compile/evaluate split.

Exports resolve lazily (PEP 562): constraint and objective modules
import :mod:`repro.engine.kernels` at module load, so an eager
``from repro.engine.cache import ...`` here would close an import
cycle (kernels → engine → cache → compiled → constraints → kernels).
"""

from typing import Any

__all__ = [
    "CompiledProblem",
    "ProblemCache",
    "ParallelEngine",
]

#: Lazy export table: attribute name -> defining submodule.
_EXPORTS = {
    "CompiledProblem": "repro.engine.compiled",
    "ProblemCache": "repro.engine.cache",
    "ParallelEngine": "repro.engine.parallel",
}


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.engine' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
