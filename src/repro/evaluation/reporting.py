"""Plain-text rendering of figure series.

The benches regenerate the paper's figures as text tables (size sweep
down the rows, algorithms across the columns) so the trends — who wins,
by roughly what factor, where the crossovers fall — are readable in a
terminal and diffable in EXPERIMENTS.md.  The table printer itself is
:func:`repro.utils.tables.format_table`.
"""

from __future__ import annotations

from repro.evaluation.runner import SweepResult
from repro.utils.tables import format_table

__all__ = ["format_series_table"]


def format_series_table(
    result: SweepResult, metric: str, title: str | None = None
) -> str:
    """One figure as text: sizes down the rows, algorithms across."""
    sizes = result.sizes()
    series = result.series(metric)
    headers = ["servers x vms", *series.keys()]
    rows = []
    for idx, (servers, vms) in enumerate(sizes):
        rows.append(
            [f"{servers} x {vms}", *(series[alg][idx] for alg in series)]
        )
    return format_table(headers, rows, title=title)
