"""Unit tests for the repro.engine package: compiled instances and the
LRU problem cache (including eviction and fingerprint-collision
handling)."""

import numpy as np
import pytest

from repro.engine import CompiledProblem, ProblemCache
from repro.model import Request
from repro.objectives import PopulationEvaluator


def _scaled_request(request: Request, factor: float) -> Request:
    """A structurally identical request with scaled demand."""
    return Request(
        demand=request.demand * factor,
        qos_guarantee=request.qos_guarantee,
        downtime_cost=request.downtime_cost,
        migration_cost=request.migration_cost,
        groups=request.groups,
        schema=request.schema,
    )


class TestCompiledProblem:
    def test_precomputed_facts(self, small_infra, small_request):
        compiled = CompiledProblem.compile(small_infra, small_request)
        assert compiled.n == small_request.n
        assert compiled.m == small_infra.m
        assert np.array_equal(
            compiled.effective_capacity, small_infra.effective_capacity
        )
        assert np.allclose(
            compiled.per_resource_rate,
            small_infra.operating_cost + small_infra.usage_cost,
        )
        assert compiled.compile_seconds >= 0.0

    def test_group_indexes(self, small_infra, small_request):
        compiled = CompiledProblem.compile(small_infra, small_request)
        # Groups: SAME_SERVER (0, 1) and DIFFERENT_SERVERS (2, 3).
        assert compiled.member_groups[0] == (0,)
        assert compiled.member_groups[2] == (1,)
        assert compiled.member_groups[4] == ()

    def test_fingerprint_stable_and_content_sensitive(
        self, small_infra, small_request
    ):
        a = CompiledProblem.fingerprint_of(small_infra, small_request)
        b = CompiledProblem.fingerprint_of(small_infra, small_request)
        assert a == b
        changed = _scaled_request(small_request, 1.5)
        assert CompiledProblem.fingerprint_of(small_infra, changed) != a

    def test_constraint_set_shares_prebuilt_groups(
        self, small_infra, small_request
    ):
        compiled = CompiledProblem.compile(small_infra, small_request)
        first = compiled.constraint_set()
        second = compiled.constraint_set(include_assignment=False)
        for built in (first, second):
            for prebuilt, used in zip(
                compiled.group_constraints, built.group_constraints
            ):
                assert prebuilt is used

    def test_bound_evaluator_matches_plain(self, small_infra, small_request):
        compiled = CompiledProblem.compile(small_infra, small_request)
        bound = compiled.evaluator(include_assignment_constraint=True)
        plain = PopulationEvaluator(
            small_infra, small_request, include_assignment_constraint=True
        )
        rng = np.random.default_rng(0)
        for _ in range(5):
            genome = rng.integers(0, small_infra.m, size=small_request.n)
            b_obj, b_viol = bound.assess(genome)
            p_obj, p_viol = plain.assess(genome)
            assert b_viol == p_viol
            assert np.allclose(b_obj.as_array(), p_obj.as_array())

    def test_matches_rejects_different_shape(self, small_infra, small_request):
        compiled = CompiledProblem.compile(small_infra, small_request)
        assert compiled.matches(small_infra, small_request)
        shrunk = Request(
            demand=small_request.demand[:4],
            qos_guarantee=small_request.qos_guarantee[:4],
            downtime_cost=small_request.downtime_cost[:4],
            migration_cost=small_request.migration_cost[:4],
            schema=small_request.schema,
        )
        assert not compiled.matches(small_infra, shrunk)


class TestProblemCache:
    def test_hit_returns_same_object(self, small_infra, small_request):
        cache = ProblemCache()
        first = cache.get(small_infra, small_request)
        second = cache.get(small_infra, small_request)
        assert first is second
        assert cache.misses == 1
        assert cache.hits == 1

    def test_lru_eviction(self, small_infra, small_request):
        cache = ProblemCache(maxsize=2)
        requests = [_scaled_request(small_request, f) for f in (1.0, 1.1, 1.2)]
        compiled = [cache.get(small_infra, r) for r in requests]
        assert len(cache) == 2
        assert cache.evictions == 1
        assert compiled[0].fingerprint not in cache
        assert compiled[2].fingerprint in cache
        # Re-requesting the evicted instance recompiles.
        again = cache.get(small_infra, requests[0])
        assert again is not compiled[0]
        assert cache.misses == 4

    def test_lru_order_refreshed_by_hits(self, small_infra, small_request):
        cache = ProblemCache(maxsize=2)
        a, b, c = (_scaled_request(small_request, f) for f in (1.0, 1.1, 1.2))
        cache.get(small_infra, a)
        cache.get(small_infra, b)
        kept = cache.get(small_infra, a)  # refresh a → b becomes LRU
        cache.get(small_infra, c)
        assert kept.fingerprint in cache
        assert CompiledProblem.fingerprint_of(small_infra, b) not in cache

    def test_fingerprint_collision_recompiles(
        self, small_infra, small_request, monkeypatch
    ):
        """Two structurally different instances hashing to the same key
        must never share a compilation."""
        monkeypatch.setattr(
            CompiledProblem, "fingerprint_of", staticmethod(lambda i, r: "same")
        )
        cache = ProblemCache()
        other = Request(
            demand=small_request.demand[:4],
            qos_guarantee=small_request.qos_guarantee[:4],
            downtime_cost=small_request.downtime_cost[:4],
            migration_cost=small_request.migration_cost[:4],
            schema=small_request.schema,
        )
        first = cache.get(small_infra, small_request)
        second = cache.get(small_infra, other)
        assert cache.collisions == 1
        assert first.n == small_request.n
        assert second.n == other.n
        # The slot now holds the recompiled instance.
        third = cache.get(small_infra, other)
        assert third is second
        assert cache.hits == 1

    def test_maxsize_validated(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            ProblemCache(maxsize=0)

    def test_clear_keeps_counters(self, small_infra, small_request):
        cache = ProblemCache()
        cache.get(small_infra, small_request)
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 1

