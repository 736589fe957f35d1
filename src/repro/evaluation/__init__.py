"""Evaluation harness: the paper's Section IV measurement machinery.

* :mod:`metrics` — per-run records and multi-run aggregation of the
  four criteria (execution time, rejection rate, violated constraints,
  provider cost);
* :mod:`runner` — run a set of algorithms over a size sweep of random
  scenarios, averaging over repetitions (the paper uses 100 runs);
* :mod:`comparison` — the computed capability matrix behind Table II;
* :mod:`reporting` — plain-text rendering of figure series (tables
  print through :func:`repro.utils.tables.format_table`).
"""

from repro.evaluation.metrics import (
    AggregateMetrics,
    RunRecord,
    aggregate_records,
)
from repro.evaluation.runner import AllocatorFactory, ExperimentRunner, SweepResult
from repro.evaluation.comparison import TABLE2_CRITERIA, capability_matrix
from repro.evaluation.convergence import (
    convergence_summary,
    evaluations_to_feasible,
    evaluations_to_within,
    sparkline,
)
from repro.evaluation.reporting import format_series_table
from repro.utils.tables import format_table

__all__ = [
    "RunRecord",
    "AggregateMetrics",
    "aggregate_records",
    "AllocatorFactory",
    "ExperimentRunner",
    "SweepResult",
    "capability_matrix",
    "TABLE2_CRITERIA",
    "format_table",
    "format_series_table",
    "convergence_summary",
    "evaluations_to_feasible",
    "evaluations_to_within",
    "sparkline",
]
