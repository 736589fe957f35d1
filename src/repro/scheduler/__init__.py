"""Cyclic time-window scheduling (Section III's operational loop).

The paper's scheduler "is aware of the cloud platform status in real
time" and "directly include[s] all requests within a cyclic time
window during the execution of the allocation optimization process".
This package implements that loop:

* :mod:`events` — arrival/departure event stream;
* :class:`TimeWindowScheduler` — batches arrivals per window, hands
  each batch to any :class:`~repro.allocator.Allocator`, commits
  accepted placements into the shared
  :class:`~repro.model.state.PlatformState` and reports per-window
  metrics;
* :mod:`reconfiguration` — migration plans between successive
  allocations X^t → X^{t+1} with their Eq. 26 costs;
* :func:`scenario_metrics` — the roll-up of a run's window reports
  into :class:`ScenarioMetrics`.
"""

from repro.scheduler.events import (
    ArrivalEvent,
    DepartureEvent,
    EventQueue,
    ServerFailureEvent,
    ServerRecoveryEvent,
)
from repro.scheduler.reconfiguration import MigrationPlan, plan_migration
from repro.scheduler.summary import ScenarioMetrics, scenario_metrics
from repro.scheduler.window import TimeWindowScheduler, WindowReport

__all__ = [
    "ArrivalEvent",
    "DepartureEvent",
    "ServerFailureEvent",
    "ServerRecoveryEvent",
    "EventQueue",
    "MigrationPlan",
    "plan_migration",
    "TimeWindowScheduler",
    "ScenarioMetrics",
    "scenario_metrics",
    "WindowReport",
]
