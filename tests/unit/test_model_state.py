"""Unit tests for PlatformState (committed usage across windows)."""

import numpy as np
import pytest

from repro.errors import SchedulerError
from repro.model import Placement, PlatformState


def _placement(infra, genes):
    return Placement(assignment=np.asarray(genes), infrastructure=infra)


class TestCommitRelease:
    def test_commit_adds_usage(self, small_infra, small_request):
        state = PlatformState(small_infra)
        placement = _placement(small_infra, [0, 0, 1, 2, 3, 4])
        state.commit("a", placement, small_request)
        expect = placement.server_usage(small_request.demand)
        assert np.allclose(state.committed_usage, expect)
        assert state.hosted_resource_count == 6

    def test_release_restores_empty(self, small_infra, small_request):
        state = PlatformState(small_infra)
        state.commit("a", _placement(small_infra, [0, 0, 1, 2, 3, 4]), small_request)
        state.release("a")
        assert np.allclose(state.committed_usage, 0.0)
        assert state.tenants() == ()

    def test_duplicate_key_rejected(self, small_infra, small_request):
        state = PlatformState(small_infra)
        placement = _placement(small_infra, [0, 0, 1, 2, 3, 4])
        state.commit("a", placement, small_request)
        with pytest.raises(SchedulerError):
            state.commit("a", placement, small_request)

    def test_release_unknown_rejected(self, small_infra):
        with pytest.raises(SchedulerError):
            PlatformState(small_infra).release("ghost")

    def test_size_mismatch_rejected(self, small_infra, small_request):
        state = PlatformState(small_infra)
        with pytest.raises(SchedulerError):
            state.commit("a", _placement(small_infra, [0, 1]), small_request)

    def test_residual_capacity(self, small_infra, small_request):
        state = PlatformState(small_infra)
        before = small_infra.effective_capacity - state.committed_usage
        assert np.allclose(before, small_infra.effective_capacity)
        state.commit("a", _placement(small_infra, [0] * 6), small_request)
        after = small_infra.effective_capacity - state.committed_usage
        assert np.all(after[0] < before[0])
        assert np.allclose(after[1:], before[1:])


class TestConsistency:
    def test_verify_after_churn(self, small_infra, small_request):
        state = PlatformState(small_infra)
        for i in range(5):
            state.commit(
                f"t{i}", _placement(small_infra, [(i + j) % 8 for j in range(6)]),
                small_request,
            )
        state.release("t2")
        state.release("t4")
        state.verify_consistency()  # must not raise

    def test_committed_load_matches_usage(self, small_infra, small_request):
        state = PlatformState(small_infra)
        state.commit("a", _placement(small_infra, [0] * 6), small_request)
        load = state.committed_load
        expect = state.committed_usage[0] / small_infra.capacity[0]
        assert np.allclose(load[0], expect)

    def test_previous_assignment_is_copy(self, small_infra, small_request):
        state = PlatformState(small_infra)
        state.commit("a", _placement(small_infra, [0, 0, 1, 2, 3, 4]), small_request)
        snap = state.previous_assignment("a")
        snap[0] = 7
        assert state.previous_assignment("a")[0] == 0
