"""Unit tests for platform failure/recovery events (the paper's
future-work flow events)."""

import numpy as np
import pytest

from repro.baselines import FirstFitAllocator
from repro.errors import SchedulerError
from repro.model import Request
from repro.scheduler import TimeWindowScheduler
from repro.telemetry import RequestRejected, WindowClosed
from tests.telemetry_helpers import capture_events


def _request(n=2, scale=1.0):
    return Request(
        demand=np.full((n, 3), scale),
        qos_guarantee=np.full(n, 0.9),
        downtime_cost=np.ones(n),
        migration_cost=np.full(n, 7.0),
    )


class TestServerFailure:
    def test_failed_server_receives_nothing(self, small_infra):
        scheduler = TimeWindowScheduler(small_infra, FirstFitAllocator())
        scheduler.schedule_failure(0, at=0.0)
        scheduler.submit("a", _request(), at=0.5)
        report = scheduler.run_window()
        assert report.failures == (0,)
        assert 0 in scheduler.failed_servers
        placed = report.outcome.assignment
        assert 0 not in placed[placed >= 0].tolist()

    def test_failure_displaces_and_replaces_tenants(self, small_infra):
        scheduler = TimeWindowScheduler(small_infra, FirstFitAllocator())
        scheduler.submit("a", _request(), at=0.0)
        first = scheduler.run_window()
        assert first.accepted == ("a",)
        hosted_on = scheduler.state.previous_assignment("a")
        server = int(hosted_on[0])

        scheduler.schedule_failure(server, at=scheduler.clock + 0.1)
        report = scheduler.run_window()
        assert report.failures == (server,)
        assert report.displaced == ("a",)
        # The tenant was re-placed somewhere legal.
        assert "a" in report.accepted
        new_assignment = scheduler.state.previous_assignment("a")
        assert server not in new_assignment.tolist()
        scheduler.state.verify_consistency()

    def test_displacement_not_charged_as_migration(self, small_infra):
        # All of tenant a sits on one server; when it fails, every gene
        # was on the failed host, so the re-placement books zero
        # migration cost (forced boots, not moves).
        scheduler = TimeWindowScheduler(small_infra, FirstFitAllocator())
        scheduler.submit("a", _request(), at=0.0)
        scheduler.run_window()
        assignment = scheduler.state.previous_assignment("a")
        servers = set(assignment.tolist())
        if len(servers) != 1:
            pytest.skip("tenant spread over several servers")
        scheduler.schedule_failure(assignment[0], at=scheduler.clock + 0.1)
        report = scheduler.run_window()
        assert report.outcome is not None
        assert report.outcome.objectives[2] == pytest.approx(0.0)

    def test_recovery_restores_server(self, small_infra):
        scheduler = TimeWindowScheduler(small_infra, FirstFitAllocator())
        scheduler.schedule_failure(0, at=0.0)
        scheduler.schedule_recovery(0, at=1.5)
        scheduler.submit("late", _request(), at=1.6)
        scheduler.run_window()  # failure
        report = scheduler.run_window()  # recovery + arrival
        assert report.recoveries == (0,)
        assert scheduler.failed_servers == frozenset()
        # First-fit can use server 0 again.
        assert report.outcome.assignment[0] == 0

    def test_duplicate_failure_is_idempotent(self, small_infra):
        scheduler = TimeWindowScheduler(small_infra, FirstFitAllocator())
        scheduler.schedule_failure(3, at=0.0)
        scheduler.schedule_failure(3, at=0.1)
        report = scheduler.run_window()
        assert report.failures == (3,)

    def test_out_of_range_server_rejected(self, small_infra):
        scheduler = TimeWindowScheduler(small_infra, FirstFitAllocator())
        with pytest.raises(SchedulerError):
            scheduler.schedule_failure(small_infra.m, at=0.0)
        with pytest.raises(SchedulerError):
            scheduler.schedule_recovery(-1, at=0.0)

    def test_mass_failure_forces_rejections(self, small_infra):
        # Fail every server but one tiny host: displaced tenants cannot
        # all fit and must be rejected, never silently violated.
        scheduler = TimeWindowScheduler(small_infra, FirstFitAllocator())
        for i in range(3):
            scheduler.submit(f"t{i}", _request(n=4, scale=3.0), at=0.0)
        scheduler.run_window()
        for server in range(1, small_infra.m):
            scheduler.schedule_failure(server, at=scheduler.clock + 0.1)
        report = scheduler.run_window()
        assert report.outcome is None or report.outcome.violations == 0
        scheduler.state.verify_consistency()
        # Whatever is still hosted only uses server 0.
        for key in scheduler.state.tenants():
            assignment = scheduler.state.previous_assignment(key)
            assert set(assignment.tolist()) <= {0}

    def test_failure_recovery_telemetry_event_order(self, small_infra):
        """Failure displaces + re-queues tenants, and the telemetry
        stream reflects the windows in emission order: each window's
        RequestRejected events precede its WindowClosed marker, and
        window indices close in sequence."""
        scheduler = TimeWindowScheduler(small_infra, FirstFitAllocator())
        with capture_events() as sink:
            # Window 0: two tenants arrive and are hosted.
            scheduler.submit("a", _request(), at=0.0)
            scheduler.submit("b", _request(), at=0.0)
            first = scheduler.run_window()
            assert set(first.accepted) == {"a", "b"}

            # Window 1: the server hosting "a" fails -> displacement.
            server = int(scheduler.state.previous_assignment("a")[0])
            scheduler.schedule_failure(server, at=scheduler.clock + 0.1)
            report = scheduler.run_window()
            assert "a" in report.displaced
            # The displaced tenant re-entered the same window's batch.
            assert ("a" in report.accepted) or ("a" in report.rejected)

            # Window 2: the server recovers.
            scheduler.schedule_recovery(server, at=scheduler.clock + 0.1)
            recovery = scheduler.run_window()
            assert recovery.recoveries == (server,)

        closed = sink.of(WindowClosed)
        assert [e.window_index for e in closed] == [0, 1, 2]
        assert closed[1].failures == 1
        assert closed[1].displaced == len(report.displaced) >= 1
        assert closed[2].recoveries == 1

        # Rejections (if the displaced tenant could not be re-placed)
        # are emitted before their window closes, tagged "displaced".
        for rejected in sink.of(RequestRejected):
            window_close_pos = sink.events.index(
                next(
                    e
                    for e in closed
                    if e.window_index == rejected.window_index
                )
            )
            assert sink.events.index(rejected) < window_close_pos
            if rejected.key == "a":
                assert rejected.reason == "displaced"

    def test_mass_failure_rejections_emit_displaced_reason(self, small_infra):
        """Every server but one fails: displaced tenants that cannot be
        re-hosted are re-queued, rejected, and reported through the bus
        with reason='displaced'."""
        scheduler = TimeWindowScheduler(small_infra, FirstFitAllocator())
        for i in range(3):
            scheduler.submit(f"t{i}", _request(n=4, scale=3.0), at=0.0)
        scheduler.run_window()
        hosted = set(scheduler.state.tenants())
        with capture_events() as sink:
            for server in range(1, small_infra.m):
                scheduler.schedule_failure(server, at=scheduler.clock + 0.1)
            report = scheduler.run_window()
        assert report.displaced  # someone was hosted off server 0
        rejected = sink.of(RequestRejected)
        # Displaced-but-unplaceable tenants surface as rejections with
        # the displaced reason; fresh-capacity rejections would say
        # "capacity".
        for event in rejected:
            assert event.key in hosted
            assert event.reason == "displaced"
        closed = sink.of(WindowClosed)
        assert len(closed) == 1
        assert closed[0].rejected == len(rejected)
        assert closed[0].failures == small_infra.m - 1

    def test_double_failure_same_window_displaces_once(self, small_infra):
        # A tenant spread over two servers, both of which fail in the
        # same window: the first failure displaces it into the batch,
        # and the second must scrub the batch entry's genes too — one
        # displacement, zero migration charge, no anchoring to the
        # second dead host.
        scheduler = TimeWindowScheduler(small_infra, FirstFitAllocator())
        scheduler.submit("a", _request(scale=10.0), at=0.0)
        first = scheduler.run_window()
        assert first.accepted == ("a",)
        servers = sorted(set(scheduler.state.previous_assignment("a").tolist()))
        if len(servers) < 2:
            pytest.skip("tenant not spread over two servers")

        at = scheduler.clock + 0.1
        for server in servers:
            scheduler.schedule_failure(server, at=at)
        report = scheduler.run_window()
        assert tuple(sorted(report.failures)) == tuple(servers)
        assert report.displaced == ("a",)
        assert "a" in report.accepted
        rehomed = set(scheduler.state.previous_assignment("a").tolist())
        assert not rehomed & set(servers)
        # Both source hosts are gone, so every gene is a forced boot:
        # the migration objective must book zero moves.
        assert report.outcome.objectives[2] == pytest.approx(0.0)
        scheduler.state.verify_consistency()

    def test_failure_then_unrelated_failure_keeps_partial_charge(
        self, small_infra
    ):
        # Control for the scrub: when the second failed server never
        # hosted the displaced tenant, its surviving genes still count
        # as migration sources (the scrub must not over-erase).
        scheduler = TimeWindowScheduler(small_infra, FirstFitAllocator())
        scheduler.submit("a", _request(scale=10.0), at=0.0)
        scheduler.run_window()
        servers = sorted(set(scheduler.state.previous_assignment("a").tolist()))
        if len(servers) < 2:
            pytest.skip("tenant not spread over two servers")
        untouched = [s for s in range(small_infra.m) if s not in servers]

        at = scheduler.clock + 0.1
        scheduler.schedule_failure(servers[0], at=at)
        scheduler.schedule_failure(untouched[0], at=at + 0.1)
        report = scheduler.run_window()
        assert report.displaced == ("a",)
        assert "a" in report.accepted
        # The gene on the surviving source host keeps its identity: if
        # first-fit re-places it on the same server, no move is booked,
        # and either way the platform stays consistent.
        new = set(scheduler.state.previous_assignment("a").tolist())
        assert servers[0] not in new and untouched[0] not in new
        scheduler.state.verify_consistency()

    def test_reoptimize_respects_failed_servers(self, small_infra):
        scheduler = TimeWindowScheduler(small_infra, FirstFitAllocator())
        scheduler.submit("a", _request(), at=0.0)
        scheduler.submit("b", _request(), at=0.0)
        scheduler.run_window()
        scheduler.schedule_failure(5, at=scheduler.clock + 0.1)
        scheduler.run_window()
        result = scheduler.reoptimize()
        if result is None:
            pytest.skip("nothing hosted")
        outcome, _plan = result
        placed = outcome.assignment[outcome.assignment >= 0]
        assert 5 not in placed.tolist()
