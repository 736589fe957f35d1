"""Unit tests for the scheduler: events, migration plans, time windows."""

import numpy as np
import pytest

from repro.baselines import FirstFitAllocator
from repro.errors import SchedulerError
from repro.model import Request
from repro.model.placement import UNPLACED
from repro.scheduler import (
    ArrivalEvent,
    DepartureEvent,
    EventQueue,
    TimeWindowScheduler,
    plan_migration,
)


def _request(n=2, scale=1.0):
    return Request(
        demand=np.full((n, 3), scale),
        qos_guarantee=np.full(n, 0.9),
        downtime_cost=np.ones(n),
        migration_cost=np.arange(1, n + 1, dtype=np.float64),
    )


class TestEventQueue:
    def test_time_ordering(self):
        queue = EventQueue()
        queue.push(DepartureEvent(time=2.0, key="b"))
        queue.push(ArrivalEvent(time=1.0, key="a", request=_request()))
        events = queue.pop_until(5.0)
        assert [e.key for e in events] == ["a", "b"]

    def test_fifo_within_equal_times(self):
        queue = EventQueue()
        for key in "abc":
            queue.push(DepartureEvent(time=1.0, key=key))
        assert [e.key for e in queue.pop_until(1.0)] == ["a", "b", "c"]

    def test_pop_until_respects_cutoff(self):
        queue = EventQueue()
        queue.push(DepartureEvent(time=1.0, key="a"))
        queue.push(DepartureEvent(time=3.0, key="b"))
        assert [e.key for e in queue.pop_until(2.0)] == ["a"]
        assert len(queue) == 1
        assert [e.time for e in queue.snapshot()] == [3.0]

    def test_negative_time_rejected(self):
        with pytest.raises(SchedulerError):
            DepartureEvent(time=-1.0, key="x")


class TestMigrationPlan:
    def test_classifies_moves_boots_shutdowns(self):
        request = _request(n=4)
        previous = np.array([0, 1, UNPLACED, 2])
        new = np.array([0, 3, 5, UNPLACED])
        plan = plan_migration(previous, new, request)
        assert [m.resource for m in plan.moves] == [1]
        assert plan.boots == (2,)
        assert plan.shutdowns == (3,)

    def test_cost_is_eq26(self):
        request = _request(n=3)  # M = [1, 2, 3]
        previous = np.array([0, 0, 0])
        new = np.array([1, 0, 2])
        plan = plan_migration(previous, new, request)
        assert plan.total_cost == pytest.approx(1.0 + 3.0)
        assert plan.size == 2

    def test_identical_assignments_empty_plan(self):
        request = _request(n=2)
        plan = plan_migration(np.array([0, 1]), np.array([0, 1]), request)
        assert len(plan) == 0 and plan.total_cost == 0.0


class TestTimeWindowScheduler:
    def test_batches_by_window(self, small_infra):
        scheduler = TimeWindowScheduler(
            small_infra, FirstFitAllocator(), window_length=1.0
        )
        scheduler.submit("a", _request(), at=0.2)
        scheduler.submit("b", _request(), at=0.8)
        scheduler.submit("c", _request(), at=1.5)
        first = scheduler.run_window()
        assert set(first.arrivals) == {"a", "b"}
        second = scheduler.run_window()
        assert second.arrivals == ("c",)

    def test_accepted_requests_commit_capacity(self, small_infra):
        scheduler = TimeWindowScheduler(small_infra, FirstFitAllocator())
        scheduler.submit("a", _request())
        report = scheduler.run_window()
        assert report.accepted == ("a",)
        assert scheduler.state.hosted_resource_count == 2
        scheduler.state.verify_consistency()

    def test_departure_releases_capacity(self, small_infra):
        scheduler = TimeWindowScheduler(small_infra, FirstFitAllocator())
        scheduler.submit("a", _request(), at=0.0)
        scheduler.schedule_departure("a", at=1.5)
        scheduler.run_window()  # allocates a
        report = scheduler.run_window()  # processes departure
        assert report.departures == ("a",)
        assert scheduler.state.hosted_resource_count == 0

    def test_rejected_request_reported(self, small_infra):
        scheduler = TimeWindowScheduler(small_infra, FirstFitAllocator())
        impossible = Request(
            demand=np.array([[1e6, 1.0, 1.0]]),
            qos_guarantee=np.array([0.9]),
            downtime_cost=np.array([1.0]),
            migration_cost=np.array([1.0]),
        )
        scheduler.submit("bad", impossible)
        report = scheduler.run_window()
        assert report.rejected == ("bad",)
        assert report.rejection_rate == 1.0

    def test_duplicate_key_rejected(self, small_infra):
        scheduler = TimeWindowScheduler(small_infra, FirstFitAllocator())
        scheduler.submit("a", _request())
        with pytest.raises(SchedulerError):
            scheduler.submit("a", _request())

    def test_run_drains_queue(self, small_infra):
        scheduler = TimeWindowScheduler(small_infra, FirstFitAllocator())
        for i in range(5):
            scheduler.submit(f"r{i}", _request(), at=float(i))
        reports = scheduler.run()
        assert scheduler.pending_events == 0
        assert sum(len(r.arrivals) for r in reports) == 5

    def test_capacity_carried_across_windows(self, small_infra):
        # Fill the estate window by window until something is rejected.
        scheduler = TimeWindowScheduler(small_infra, FirstFitAllocator())
        big = Request(
            demand=np.tile(small_infra.effective_capacity.min(axis=0) * 0.9, (8, 1)),
            qos_guarantee=np.full(8, 0.9),
            downtime_cost=np.ones(8),
            migration_cost=np.ones(8),
        )
        for i in range(4):
            scheduler.submit(f"big{i}", big, at=float(i))
        reports = scheduler.run()
        rejected = [k for r in reports for k in r.rejected]
        assert rejected  # the estate cannot hold four of these

    def test_window_length_validated(self, small_infra):
        with pytest.raises(SchedulerError):
            TimeWindowScheduler(small_infra, FirstFitAllocator(), window_length=0)


class TestReoptimize:
    def test_empty_platform_returns_none(self, small_infra):
        scheduler = TimeWindowScheduler(small_infra, FirstFitAllocator())
        assert scheduler.reoptimize() is None

    def test_reoptimize_reports_plan(self, small_infra):
        scheduler = TimeWindowScheduler(small_infra, FirstFitAllocator())
        scheduler.submit("a", _request())
        scheduler.submit("b", _request())
        scheduler.run_window()
        result = scheduler.reoptimize()
        assert result is not None
        outcome, plan = result
        assert outcome.violations == 0
        assert plan.total_cost >= 0.0
        scheduler.state.verify_consistency()
