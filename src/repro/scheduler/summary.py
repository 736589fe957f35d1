"""Roll-up of a scheduler run's window reports into comparable numbers.

One body folds the windows of any dynamic run — a registered scenario
(:meth:`repro.workloads.scenarios.CompiledScenario.run`), a trace
replay, an operator's own loop over
:meth:`~repro.scheduler.window.TimeWindowScheduler.run_window` — into
:class:`ScenarioMetrics`: the paper's four criteria summed over the
windows, plus the two operations metrics its static evaluation cannot
express, SLA violations (service interruptions of already-accepted
tenants) and migration churn (forced + planned VM moves per window).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ValidationError
from repro.scheduler.window import WindowReport

__all__ = ["ScenarioMetrics", "scenario_metrics"]


@dataclass(frozen=True)
class ScenarioMetrics:
    """One dynamic run folded into comparable numbers.

    The counts are window *decisions*: a displaced tenant re-placed
    later appears in ``accepted``/``rejected`` like any other decision,
    so it is counted twice.

    The four paper criteria, summed over windows:

    * ``execution_time`` — allocator wall-clock seconds (Σ per-window
      ``outcome.elapsed``);
    * ``rejection_rate`` — rejected decisions / all decisions;
    * ``violations`` — Σ per-window constraint violations of the
      returned allocations;
    * ``provider_cost`` — Σ per-window usage+operating cost of each
      window's batch allocation (cost *incurred per window*, so longer
      streams cost more — compare equal horizons).

    Plus the two dynamic-only criteria:

    * ``sla_violations`` — service interruptions of accepted tenants:
      each displacement (failure or drain evacuation) counts one, and a
      displaced tenant whose re-placement is *rejected* counts a second
      (interrupted, then lost).  ``sla_violation_rate`` divides by
      accepted decisions (0 when nothing was accepted);
    * ``migration_moves`` — VMs moved to a *different* server by forced
      re-placements and applied reoptimization plans.
      ``migration_churn`` is moves per window.
    """

    windows: int
    arrivals: int
    accepted: int
    rejected: int
    departures: int
    displaced: int
    failures: int
    recoveries: int
    drains: int
    execution_time: float
    violations: int
    provider_cost: float
    sla_violations: int
    migration_moves: int

    @property
    def rejection_rate(self) -> float:
        """Rejected decisions over all decisions (Figure 9, dynamic)."""
        total = self.accepted + self.rejected
        return self.rejected / total if total else 0.0

    @property
    def sla_violation_rate(self) -> float:
        """SLA violation events per accepted decision."""
        return self.sla_violations / self.accepted if self.accepted else 0.0

    @property
    def migration_churn(self) -> float:
        """Forced + planned VM moves per window."""
        return self.migration_moves / self.windows if self.windows else 0.0

    def as_row(self) -> list:
        """Figure-friendly row (used by ``python -m repro scenario run``)."""
        return [
            self.windows,
            f"{self.execution_time:.3f}",
            f"{self.rejection_rate:.3f}",
            self.violations,
            f"{self.provider_cost:.1f}",
            f"{self.sla_violation_rate:.3f}",
            f"{self.migration_churn:.2f}",
        ]


def scenario_metrics(
    reports: Sequence[WindowReport], *, migration_moves: int = 0
) -> ScenarioMetrics:
    """Fold per-window reports of a dynamic run into :class:`ScenarioMetrics`.

    ``migration_moves`` is supplied by the caller that kept the
    before/after placements (the scenario runner counts moved VMs);
    everything else is computed from the reports, so small hand-built
    fixtures can pin the definitions (``tests/unit/test_scenario_metrics.py``).
    """
    if not reports:
        raise ValidationError("cannot compute scenario metrics of zero windows")
    sla = 0
    for report in reports:
        rejected = set(report.rejected)
        # One event per interruption, a second when the tenant is lost.
        sla += len(report.displaced)
        sla += sum(1 for key in report.displaced if key in rejected)
    return ScenarioMetrics(
        windows=len(reports),
        arrivals=sum(len(r.arrivals) for r in reports),
        accepted=sum(len(r.accepted) for r in reports),
        rejected=sum(len(r.rejected) for r in reports),
        departures=sum(len(r.departures) for r in reports),
        displaced=sum(len(r.displaced) for r in reports),
        failures=sum(len(r.failures) for r in reports),
        recoveries=sum(len(r.recoveries) for r in reports),
        drains=sum(len(r.drains) for r in reports),
        execution_time=float(
            sum(r.outcome.elapsed for r in reports if r.outcome is not None)
        ),
        violations=int(
            sum(r.outcome.violations for r in reports if r.outcome is not None)
        ),
        provider_cost=float(
            sum(r.outcome.provider_cost for r in reports if r.outcome is not None)
        ),
        sla_violations=sla,
        migration_moves=int(migration_moves),
    )
