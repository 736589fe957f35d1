"""Unit tests: dynamic-scenario metrics and the dynamic metamorphic laws.

The metric definitions are pinned against tiny hand-computed window
fixtures (no scheduler involved), and each dynamic law is shown to both
hold on clean streams and *fail* under its matching fault injection —
proof the laws have teeth.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.allocator import BatchOutcome
from repro.errors import ValidationError
from repro.scheduler.summary import ScenarioMetrics, scenario_metrics
from repro.scheduler.window import WindowReport
from repro.verify.dynamic import DYNAMIC_LAWS, check_dynamic_laws


def _outcome(elapsed: float, violations: int, cost: float) -> BatchOutcome:
    return BatchOutcome(
        algorithm="fixture",
        assignment=np.array([0], dtype=np.int64),
        accepted=np.array([True]),
        violations=violations,
        violation_breakdown={},
        objectives=np.array([cost, 0.0, 0.0]),
        elapsed=elapsed,
    )


def _window(index: int, **overrides) -> WindowReport:
    fields = dict(
        window_index=index,
        start_time=float(index),
        end_time=float(index + 1),
        arrivals=(),
        departures=(),
        accepted=(),
        rejected=(),
        outcome=None,
    )
    fields.update(overrides)
    return WindowReport(**fields)


class TestScenarioMetricsFixtures:
    def test_hand_computed_totals(self):
        # Window 0: two arrivals, both accepted.
        # Window 1: server 3 fails; tenant "a" is displaced and
        #   re-accepted (1 SLA event), one fresh arrival rejected.
        # Window 2: server 5 drained; "b" is displaced AND its
        #   re-placement rejected (2 SLA events), "a" departs, server 3
        #   recovers.
        reports = [
            _window(
                0,
                arrivals=("a", "b"),
                accepted=("a", "b"),
                outcome=_outcome(elapsed=0.5, violations=0, cost=10.0),
            ),
            _window(
                1,
                arrivals=("c",),
                accepted=("a",),
                rejected=("c",),
                failures=(3,),
                displaced=("a",),
                outcome=_outcome(elapsed=0.25, violations=2, cost=7.0),
            ),
            _window(
                2,
                departures=("a",),
                rejected=("b",),
                drains=(5,),
                recoveries=(3,),
                displaced=("b",),
                outcome=_outcome(elapsed=0.25, violations=0, cost=3.0),
            ),
        ]
        metrics = scenario_metrics(reports, migration_moves=4)
        assert metrics == ScenarioMetrics(
            windows=3,
            arrivals=3,
            accepted=3,
            rejected=2,
            departures=1,
            displaced=2,
            failures=1,
            recoveries=1,
            drains=1,
            execution_time=1.0,
            violations=2,
            provider_cost=20.0,
            sla_violations=3,  # "a" interrupted; "b" interrupted + lost
            migration_moves=4,
        )
        assert metrics.rejection_rate == pytest.approx(2 / 5)
        assert metrics.sla_violation_rate == pytest.approx(3 / 3)
        assert metrics.migration_churn == pytest.approx(4 / 3)

    def test_windows_without_outcome_cost_nothing(self):
        reports = [
            _window(0, arrivals=("a",), accepted=("a",),
                    outcome=_outcome(0.5, 1, 9.0)),
            _window(1),  # idle window: no batch was solved
        ]
        metrics = scenario_metrics(reports)
        assert metrics.windows == 2
        assert metrics.execution_time == pytest.approx(0.5)
        assert metrics.violations == 1
        assert metrics.provider_cost == pytest.approx(9.0)
        assert metrics.migration_moves == 0

    def test_zero_denominators_yield_zero_rates(self):
        metrics = scenario_metrics([_window(0)])
        assert metrics.rejection_rate == 0.0
        assert metrics.sla_violation_rate == 0.0
        assert ScenarioMetrics(
            windows=0, arrivals=0, accepted=0, rejected=0, departures=0,
            displaced=0, failures=0, recoveries=0, drains=0, execution_time=0.0,
            violations=0, provider_cost=0.0, sla_violations=0,
            migration_moves=0,
        ).migration_churn == 0.0

    def test_empty_reports_rejected(self):
        with pytest.raises(ValidationError):
            scenario_metrics([])

    def test_as_row_shape_matches_header(self):
        row = scenario_metrics([_window(0)]).as_row()
        assert len(row) == 7


class TestDynamicLawRegressions:
    def test_laws_hold_on_clean_streams(self):
        for name in ("steady_churn", "maintenance_drain", "failure_storm"):
            report = check_dynamic_laws(name, seed=5)
            assert report.stats["laws"] == len(DYNAMIC_LAWS)
            assert report.ok, report.format()

    def test_permutation_law_detects_unpermuted_genome(self):
        # Permuting the batch without permuting the genome must trip
        # the window-permutation law (seed chosen so the permuted
        # placement is semantically distinct).
        report = check_dynamic_laws(
            "steady_churn", seed=0, inject="permute_requests_only"
        )
        assert not report.ok
        assert any(m.where == "window_permutation" for m in report.mismatches)

    def test_time_shift_law_detects_misaligned_shift(self):
        report = check_dynamic_laws(
            "maintenance_drain", seed=5, inject="shift_misalign"
        )
        assert not report.ok
        assert any(m.where == "time_shift" for m in report.mismatches)

    def test_drain_fail_law_detects_dropped_drains(self):
        report = check_dynamic_laws(
            "maintenance_drain", seed=5, inject="drain_drop"
        )
        assert not report.ok
        assert any(
            m.where == "drain_fail_equivalence" for m in report.mismatches
        )

    def test_report_format_names_scenario(self):
        report = check_dynamic_laws("steady_churn", seed=5)
        assert "steady_churn" in report.format()
