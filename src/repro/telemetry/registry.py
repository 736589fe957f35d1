"""Labeled metrics: counters, gauges and histograms with snapshot/merge.

The paper's whole evaluation (Figures 7-11) is built on observing
solver behaviour — execution time, rejection rate, violations, cost.
:class:`MetricsRegistry` is the substrate those observations flow
through at runtime: instrumented code records into the *default*
registry (:func:`get_registry`), experiments swap in a scoped registry
(:func:`use_registry`), and the process-parallel repair pool snapshots
each worker task's registry and folds the :class:`MetricsSnapshot`
back into the parent (snapshots are plain picklable dataclasses;
merging is associative and commutative, so the merged parent registry
equals the sum of its per-task snapshots).

Metric semantics follow the usual conventions:

* **counter** — monotonically accumulated float (merge: sum);
* **gauge** — last observed value (merge: the later snapshot wins);
* **histogram** — count/total/min/max summary of observations
  (merge: component-wise combination).

Series are keyed by ``name{label=value,...}`` with labels sorted, so
the same logical series always lands in the same slot regardless of
keyword order at the call site.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = [
    "HistogramSummary",
    "MetricsSnapshot",
    "MetricsRegistry",
    "series_key",
    "get_registry",
    "set_registry",
    "use_registry",
]


def series_key(name: str, labels: dict | None = None) -> str:
    """Canonical series key: ``name`` or ``name{a=1,b=x}`` (sorted)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


@dataclass(frozen=True)
class HistogramSummary:
    """Mergeable summary of a stream of observations."""

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")

    @property
    def mean(self) -> float:
        """Average observation (0.0 for an empty summary)."""
        return self.total / self.count if self.count else 0.0

    def observe(self, value: float) -> "HistogramSummary":
        """Return a new summary including ``value``."""
        return HistogramSummary(
            count=self.count + 1,
            total=self.total + value,
            minimum=min(self.minimum, value),
            maximum=max(self.maximum, value),
        )

    def combine(self, other: "HistogramSummary") -> "HistogramSummary":
        """Merge two summaries (order-independent)."""
        return HistogramSummary(
            count=self.count + other.count,
            total=self.total + other.total,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable, picklable view of a registry at one instant."""

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramSummary] = field(default_factory=dict)

    @staticmethod
    def merge_all(snapshots: Iterable["MetricsSnapshot"]) -> "MetricsSnapshot":
        """Fold any number of snapshots into one (sum semantics)."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, HistogramSummary] = {}
        for snapshot in snapshots:
            for key, value in snapshot.counters.items():
                counters[key] = counters.get(key, 0.0) + value
            gauges.update(snapshot.gauges)
            for key, summary in snapshot.histograms.items():
                existing = histograms.get(key)
                histograms[key] = (
                    summary if existing is None else existing.combine(summary)
                )
        return MetricsSnapshot(
            counters=counters, gauges=gauges, histograms=histograms
        )

    def __add__(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        return MetricsSnapshot.merge_all((self, other))

    def counter_total(self, name: str) -> float:
        """Sum of one counter across all of its label series."""
        prefix = f"{name}{{"
        return sum(
            value
            for key, value in self.counters.items()
            if key == name or key.startswith(prefix)
        )

    @property
    def empty(self) -> bool:
        """Whether nothing was recorded."""
        return not (self.counters or self.gauges or self.histograms)


class MetricsRegistry:
    """Mutable metric store; see the module docstring for semantics.

    All mutators are guarded by one lock so concurrent recording from
    threads (e.g. a thread-pool variant of the experiment runner) stays
    consistent; the per-call cost is a dict update, negligible next to
    the population evaluations it sits beside.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, HistogramSummary] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1.0, **labels) -> None:
        """Increment a counter series by ``value``."""
        key = series_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + float(value)

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set a gauge series to ``value``."""
        with self._lock:
            self._gauges[series_key(name, labels)] = float(value)

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one observation into a histogram series."""
        key = series_key(name, labels)
        with self._lock:
            summary = self._histograms.get(key, HistogramSummary())
            self._histograms[key] = summary.observe(float(value))

    # ------------------------------------------------------------------
    # Snapshot / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        """Immutable copy of the current state."""
        with self._lock:
            return MetricsSnapshot(
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                histograms=dict(self._histograms),
            )

    def merge(self, snapshot: MetricsSnapshot) -> None:
        """Fold a snapshot (e.g. from a worker process) into this registry."""
        with self._lock:
            for key, value in snapshot.counters.items():
                self._counters[key] = self._counters.get(key, 0.0) + value
            self._gauges.update(snapshot.gauges)
            for key, summary in snapshot.histograms.items():
                existing = self._histograms.get(key)
                self._histograms[key] = (
                    summary if existing is None else existing.combine(summary)
                )

    # ------------------------------------------------------------------
    def format_summary(self) -> str:
        """Human-readable dump, one series per line (sorted)."""
        snapshot = self.snapshot()
        lines: list[str] = []
        for key in sorted(snapshot.counters):
            lines.append(f"counter   {key} = {snapshot.counters[key]:g}")
        for key in sorted(snapshot.gauges):
            lines.append(f"gauge     {key} = {snapshot.gauges[key]:g}")
        for key in sorted(snapshot.histograms):
            h = snapshot.histograms[key]
            lines.append(
                f"histogram {key} count={h.count} mean={h.mean:.6g} "
                f"min={h.minimum:.6g} max={h.maximum:.6g}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Process-default registry
# ----------------------------------------------------------------------
_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-default registry instrumented code records into."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the default registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope ``registry`` as the default for the ``with`` block.

    The experiment runners use this so one sweep's metrics are isolated
    from everything else recorded in the process.
    """
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
