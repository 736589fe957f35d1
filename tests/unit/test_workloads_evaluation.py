"""Unit tests for scenario generation and the evaluation harness."""

import numpy as np
import pytest

from repro.baselines import FirstFitAllocator, RoundRobinAllocator
from repro.errors import ValidationError
from repro.evaluation import (
    ExperimentRunner,
    RunRecord,
    aggregate_records,
    capability_matrix,
    format_series_table,
    format_table,
)
from repro.types import PlacementRule
from repro.workloads import ScenarioGenerator, ScenarioSpec


class TestScenarioGenerator:
    def test_sizes_match_spec(self):
        spec = ScenarioSpec(servers=30, datacenters=3, vms=50)
        scenario = ScenarioGenerator(spec, seed=0).generate()
        assert scenario.infrastructure.m == 30
        assert scenario.infrastructure.g == 3
        assert scenario.n_vms == 50

    def test_deterministic_given_seed(self):
        spec = ScenarioSpec(servers=20, vms=30)
        a = ScenarioGenerator(spec, seed=5).generate()
        b = ScenarioGenerator(spec, seed=5).generate()
        assert np.allclose(a.infrastructure.capacity, b.infrastructure.capacity)
        assert a.n_requests == b.n_requests
        for ra, rb in zip(a.requests, b.requests):
            assert np.allclose(ra.demand, rb.demand)
            assert ra.groups == rb.groups

    def test_tightness_approached(self):
        spec = ScenarioSpec(servers=40, vms=80, tightness=0.6)
        scenario = ScenarioGenerator(spec, seed=1).generate()
        total = np.concatenate([r.demand for r in scenario.requests]).sum(axis=0)
        capacity = scenario.infrastructure.effective_capacity.sum(axis=0)
        ratio = total / capacity
        assert np.all(ratio > 0.4) and np.all(ratio < 0.75)

    def test_vm_size_capped(self):
        spec = ScenarioSpec(servers=40, vms=80, tightness=0.9, max_vm_fraction=0.3)
        scenario = ScenarioGenerator(spec, seed=2).generate()
        ceiling = 0.3 * np.median(
            scenario.infrastructure.effective_capacity, axis=0
        )
        for request in scenario.requests:
            assert np.all(request.demand <= ceiling + 1e-9)

    def test_group_members_within_requests(self):
        spec = ScenarioSpec(servers=20, vms=60, affinity_probability=1.0)
        scenario = ScenarioGenerator(spec, seed=3).generate()
        for request in scenario.requests:
            for group in request.groups:
                assert max(group.members) < request.n

    def test_anti_affinity_pigeonhole_respected(self):
        spec = ScenarioSpec(
            servers=12, datacenters=2, vms=60, affinity_probability=1.0
        )
        scenario = ScenarioGenerator(spec, seed=4).generate()
        for request in scenario.requests:
            for group in request.groups:
                if group.rule is PlacementRule.DIFFERENT_DATACENTERS:
                    assert group.size <= 2

    def test_zero_heterogeneity_is_homogeneous_scale(self):
        spec = ScenarioSpec(servers=10, vms=20, heterogeneity=0.0)
        scenario = ScenarioGenerator(spec, seed=5).generate()
        capacity = scenario.infrastructure.capacity
        assert np.allclose(capacity, capacity[0], rtol=1e-9)

    def test_generate_many_distinct(self):
        spec = ScenarioSpec(servers=10, vms=20)
        scenarios = ScenarioGenerator(spec, seed=6).generate_many(3)
        assert len(scenarios) == 3
        assert not np.allclose(
            scenarios[0].infrastructure.capacity,
            scenarios[1].infrastructure.capacity,
        )

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            ScenarioSpec(servers=0)
        with pytest.raises(ValidationError):
            ScenarioSpec(servers=4, datacenters=5)
        with pytest.raises(ValidationError):
            ScenarioSpec(tightness=0.0)
        with pytest.raises(ValidationError):
            ScenarioSpec(max_vm_fraction=0.0)


class TestMetrics:
    def _record(self, **kw):
        base = dict(
            algorithm="x",
            servers=10,
            vms=20,
            requests=5,
            elapsed=1.0,
            rejection_rate=0.1,
            violations=0,
            provider_cost=100.0,
            downtime_cost=0.0,
            migration_cost=0.0,
        )
        base.update(kw)
        return RunRecord(**base)

    def test_aggregate_means(self):
        records = [self._record(elapsed=1.0), self._record(elapsed=3.0)]
        agg = aggregate_records(records)
        assert agg.mean_elapsed == pytest.approx(2.0)
        assert agg.runs == 2

    def test_heterogeneous_group_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_records(
                [self._record(), self._record(algorithm="y")]
            )

    def test_metric_lookup(self):
        agg = aggregate_records([self._record()])
        assert agg.metric("execution_time") == pytest.approx(1.0)
        assert agg.metric("provider_cost") == pytest.approx(100.0)
        with pytest.raises(ValidationError):
            agg.metric("bogus")

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_records([])


class TestRunner:
    def test_sweep_produces_grid(self):
        runner = ExperimentRunner(
            {
                "ff": FirstFitAllocator,
                "rr": RoundRobinAllocator,
            },
            runs=2,
            seed=0,
        )
        specs = [
            ScenarioSpec(servers=10, vms=20, tightness=0.5),
            ScenarioSpec(servers=20, vms=40, tightness=0.5),
        ]
        result = runner.run_sweep(specs)
        assert len(result.records) == 2 * 2 * 2
        assert result.algorithms() == ["ff", "rr"]
        assert result.sizes() == [(10, 20), (20, 40)]
        agg = result.aggregate("ff", (10, 20))
        assert agg.runs == 2

    def test_sweep_counts_each_cell(self):
        runner = ExperimentRunner(
            {
                "ff": FirstFitAllocator,
                "rr": RoundRobinAllocator,
            },
            runs=2,
            seed=0,
        )
        result = runner.run_sweep(
            [
                ScenarioSpec(servers=10, vms=20, tightness=0.5),
                ScenarioSpec(servers=20, vms=40, tightness=0.5),
            ]
        )
        # One evaluation.cells count per (spec, run) cell of each label.
        telemetry = result.telemetry
        for label in ("ff", "rr"):
            assert telemetry.counters[f"evaluation.cells{{algorithm={label}}}"] == 2 * 2
            timed = telemetry.histograms[f"evaluation.cell_seconds{{algorithm={label}}}"]
            assert timed.count == 2 * 2
        assert telemetry.counter_total("evaluation.cells") == len(result.records)

    def test_series_shape(self):
        runner = ExperimentRunner({"ff": FirstFitAllocator}, runs=1, seed=1)
        result = runner.run_sweep([ScenarioSpec(servers=10, vms=20)])
        series = result.series("rejection_rate")
        assert list(series) == ["ff"]
        assert len(series["ff"]) == 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            ExperimentRunner({}, runs=1)
        with pytest.raises(ValidationError):
            ExperimentRunner({"ff": FirstFitAllocator}, runs=0)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [3, 4.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert set(lines[2]) <= {"-", " "}

    def test_format_table_bools_and_floats(self):
        text = format_table(["x"], [[True], [False], [0.1234], [12345.0]])
        assert "yes" in text and "no" in text
        assert "0.1234" in text and "12,345" in text

    def test_row_width_checked(self):
        with pytest.raises(ValidationError):
            format_table(["a", "b"], [[1]])

    def test_series_table(self):
        runner = ExperimentRunner({"ff": FirstFitAllocator}, runs=1, seed=2)
        result = runner.run_sweep([ScenarioSpec(servers=10, vms=20)])
        text = format_series_table(result, "rejection_rate", title="Fig")
        assert "10 x 20" in text and "ff" in text


class TestCapabilityMatrix:
    def test_greedy_row(self):
        rows = capability_matrix({"ff": FirstFitAllocator}, seed=0, runs=1)
        assert len(rows) == 1
        row = rows[0]
        assert row.algorithm == "ff"
        assert row.compliance_with_constraints  # greedy never violates
        assert set(row.details) >= {"mean_violations", "time_ratio"}
