"""Unit tests for the service's single-writer state, its admission layer
and the load generator's latency percentiles."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.baselines import BestFitAllocator, RoundRobinAllocator
from repro.errors import SchedulerError
from repro.model import Request
from repro.service import (
    AdmissionController,
    ServiceState,
    replay_admission_log,
)
from repro.service.admission import diagnose_rejection
from repro.service.loadgen import percentile


def _request(n=2, scale=1.0):
    return Request(
        demand=np.full((n, 3), scale),
        qos_guarantee=np.full(n, 0.9),
        downtime_cost=np.ones(n),
        migration_cost=np.full(n, 7.0),
    )


class TestServiceState:
    def test_admit_commits_and_logs(self, small_infra):
        state = ServiceState(small_infra, seed=0)
        report = state.admit(arrivals=[("a", _request()), ("b", _request())])
        assert set(report.accepted) == {"a", "b"}
        assert state.epoch == 1
        assert state.tenant_count() == 2
        assert state.is_hosted("a") and state.knows_key("a")
        (record,) = state.log
        assert record["type"] == "window"
        assert sorted(record["accepted"]) == ["a", "b"]

    def test_departure_releases_capacity(self, small_infra):
        state = ServiceState(small_infra, seed=0)
        state.admit(arrivals=[("a", _request())])
        state.admit(departures=["a"])
        assert not state.is_hosted("a")
        assert state.knows_key("a")  # keys are permanent
        assert state.epoch == 2
        assert state.log[1]["departures"] == ["a"]

    def test_epoch_guard_rejects_stale_plan(self, small_infra):
        state = ServiceState(small_infra, seed=0)
        state.admit(arrivals=[("a", _request())])
        _payload, epoch = state.snapshot()
        # A failure (or any admission) between snapshot and apply moves
        # the epoch; the stale plan must be discarded untouched.
        hosted_on = int(state.scheduler.state.previous_assignment("a")[0])
        state.admit(failures=[hosted_on])
        before = state.residents()
        applied = state.apply_reoptimization(
            {"a": [0, 0]}, epoch
        )
        assert applied is False
        assert state.residents() == before

    def test_apply_reoptimization_requires_matching_tenants(self, small_infra):
        state = ServiceState(small_infra, seed=0)
        state.admit(arrivals=[("a", _request())])
        with pytest.raises(SchedulerError):
            state.apply_reoptimization(
                {"a": [0, 0], "ghost": [1, 1]}, epoch=state.epoch
            )

    def test_apply_reoptimization_moves_and_logs(self, small_infra):
        state = ServiceState(small_infra, seed=0)
        state.admit(arrivals=[("a", _request())])
        current = [int(g) for g in state.scheduler.state.previous_assignment("a")]
        target = [2 if g != 2 else 3 for g in current]
        assert state.apply_reoptimization({"a": target}, epoch=state.epoch)
        assert state.residents()["a"] == target
        assert state.log[-1]["type"] == "reoptimize"
        state.scheduler.state.verify_consistency()

    def test_state_payload_round_trip(self, small_infra):
        state = ServiceState(small_infra, seed=5)
        state.admit(arrivals=[("a", _request()), ("b", _request())])
        state.admit(departures=["a"])
        payload = state.state_payload()

        restored = ServiceState(small_infra, seed=5)
        restored.restore_payload(payload)
        assert restored.epoch == state.epoch
        assert restored.residents() == state.residents()
        usage = state.scheduler.state.committed_usage
        assert restored.scheduler.state.committed_usage.tobytes() == usage.tobytes()

    @pytest.mark.parametrize("allocator_class", [RoundRobinAllocator, BestFitAllocator])
    def test_snapshot_with_a_greedy_rng_state_still_restores(
        self, small_infra, allocator_class
    ):
        """Snapshots written while the greedy baselines carried a seeded
        RNG hold its ``rng_state`` in their ``"allocator"`` entry (round
        robin's beside its pointer).  ``serve --resume`` on such a
        directory restores them: the entry is read for the pointer only,
        and the restored state admits exactly as the original does."""
        state = ServiceState(small_infra, allocator=allocator_class(), seed=5)
        state.admit(arrivals=[("a", _request()), ("b", _request())])
        payload = json.loads(json.dumps(state.state_payload()))
        legacy = {"rng_state": np.random.default_rng(5).bit_generator.state}
        if allocator_class is RoundRobinAllocator:
            assert payload["scheduler"]["allocator"] == {"pointer": 4}
            legacy["pointer"] = 4
        else:
            assert payload["scheduler"]["allocator"] is None
        payload["scheduler"]["allocator"] = legacy

        restored = ServiceState(small_infra, allocator=allocator_class(), seed=5)
        restored.restore_payload(payload)
        assert restored.residents() == state.residents()
        arrivals = [("c", _request()), ("d", _request(n=1))]
        assert restored.admit(arrivals=arrivals).accepted == state.admit(
            arrivals=arrivals
        ).accepted
        assert restored.residents() == state.residents()

    def test_replay_reproduces_residents(self, small_infra):
        state = ServiceState(small_infra, seed=2)
        state.admit(arrivals=[("a", _request()), ("b", _request())])
        state.admit(departures=["a"], arrivals=[("c", _request())])
        replayed = replay_admission_log(small_infra, state.log, seed=2)
        assert replayed.residents() == state.residents()
        assert replayed.epoch == state.epoch


class TestAdmissionController:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_accept_and_duplicate(self, small_infra):
        async def scenario():
            state = ServiceState(small_infra, seed=0)
            controller = AdmissionController(state)
            controller.start()
            try:
                first = await controller.submit_request("a", _request())
                dup = await controller.submit_request("a", _request())
            finally:
                await controller.stop()
            return first, dup

        first, dup = self._run(scenario())
        assert first.accepted and first.placement is not None
        assert not dup.accepted and dup.reason == "duplicate_key"

    def test_departure_validation(self, small_infra):
        async def scenario():
            state = ServiceState(small_infra, seed=0)
            controller = AdmissionController(state)
            controller.start()
            try:
                unknown = await controller.depart("nope")
                await controller.submit_request("a", _request())
                ok = await controller.depart("a")
                again = await controller.depart("a")
            finally:
                await controller.stop()
            return unknown, ok, again

        unknown, ok, again = self._run(scenario())
        assert not unknown.accepted and unknown.reason == "unknown_key"
        assert ok.accepted
        assert not again.accepted and again.reason == "not_hosted"

    def test_queue_overflow_returns_none(self, small_infra):
        async def scenario():
            state = ServiceState(small_infra, seed=0)
            controller = AdmissionController(state, max_queue=1)
            # Worker not started: the queue can only fill up.
            first = controller._enqueue("arrival", "a", _request(), None)
            second = controller._enqueue("arrival", "b", _request(), None)
            return first, second

        first, second = self._run(scenario())
        assert first is not None
        assert second is None  # the API layer's 429

    def test_drain_reports_displacements(self, small_infra):
        async def scenario():
            state = ServiceState(small_infra, seed=0)
            controller = AdmissionController(state)
            controller.start()
            try:
                placed = await controller.submit_request("a", _request())
                server = placed.placement[0]
                decision = await controller.drain(server)
                recovery = await controller.recover(server)
            finally:
                await controller.stop()
            return decision, recovery

        decision, recovery = self._run(scenario())
        assert decision.accepted and decision.action == "drain"
        assert "a" in decision.detail["displaced"]
        assert recovery.accepted and recovery.action == "recover"

    def test_rejection_reason_is_structured(self, small_infra):
        state = ServiceState(small_infra, seed=0)
        # Saturate so the next giant request cannot fit anywhere.
        reason = diagnose_rejection(state, _request(n=2, scale=1e5))
        assert reason in ("capacity", "affinity")


class TestPercentile:
    """Nearest rank: the smallest value with at least q% of the sample
    at or below it."""

    @pytest.mark.parametrize(
        "values, q, expected",
        [
            ([1, 2, 3, 4, 5], 50, 3),
            (list(range(1, 11)), 25, 3),
            ([5, 1, 3], 0, 1),
            ([5, 1, 3], 100, 5),
            (list(range(1, 101)), 99, 99),
        ],
    )
    def test_nearest_rank(self, values, q, expected):
        assert percentile(values, q) == expected

    def test_empty_sample_is_zero(self):
        assert percentile([], 50) == 0.0
