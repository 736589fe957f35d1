"""Unit tests for JSON serialization, the CLI and the U-NSGA-III variant."""

import numpy as np
import pytest

from repro import NSGAConfig, ScenarioGenerator, ScenarioSpec
from repro.cli import build_parser, main
from repro.ea import UNSGA3, NSGA3, RepairHandling
from repro.engine import CompiledProblem
from repro.errors import ValidationError
from repro.evaluation.metrics import RunRecord
from repro.objectives import PopulationEvaluator
from repro.serialization import (
    infrastructure_from_dict,
    infrastructure_to_dict,
    load_json,
    request_from_dict,
    request_to_dict,
    save_json,
)
from repro.tabu import TabuRepair
from repro.workloads.generator import scenario_from_dict, scenario_to_dict


class TestSerialization:
    def test_infrastructure_roundtrip(self, small_infra):
        data = infrastructure_to_dict(small_infra)
        back = infrastructure_from_dict(data)
        assert np.allclose(back.capacity, small_infra.capacity)
        assert np.allclose(back.operating_cost, small_infra.operating_cost)
        assert np.array_equal(back.server_datacenter, small_infra.server_datacenter)
        assert back.schema.names == small_infra.schema.names

    def test_request_roundtrip(self, small_request):
        back = request_from_dict(request_to_dict(small_request))
        assert np.allclose(back.demand, small_request.demand)
        assert back.groups == small_request.groups
        assert np.allclose(back.qos_guarantee, small_request.qos_guarantee)

    def test_scenario_roundtrip(self):
        spec = ScenarioSpec(servers=12, datacenters=2, vms=24, tightness=0.5)
        scenario = ScenarioGenerator(spec, seed=1).generate()
        back = scenario_from_dict(scenario_to_dict(scenario))
        assert back.n_requests == scenario.n_requests
        assert np.allclose(
            back.infrastructure.capacity, scenario.infrastructure.capacity
        )
        for a, b in zip(back.requests, scenario.requests):
            assert np.allclose(a.demand, b.demand)
            assert a.groups == b.groups
        assert back.spec.tightness == spec.tightness

    def test_file_roundtrip(self, tmp_path, small_infra):
        path = save_json(infrastructure_to_dict(small_infra), tmp_path / "infra.json")
        back = infrastructure_from_dict(load_json(path))
        assert np.allclose(back.capacity, small_infra.capacity)

    def test_kind_mismatch_rejected(self, small_infra):
        data = infrastructure_to_dict(small_infra)
        with pytest.raises(ValidationError):
            request_from_dict(data)


class TestCostPerRequestMetric:
    def _record(self, requests, rejection, cost):
        return RunRecord(
            algorithm="x",
            servers=10,
            vms=20,
            requests=requests,
            elapsed=0.1,
            rejection_rate=rejection,
            violations=0,
            provider_cost=cost,
            downtime_cost=0.0,
            migration_cost=0.0,
        )

    def test_normalizes_by_accepted(self):
        record = self._record(requests=10, rejection=0.5, cost=100.0)
        assert record.accepted_requests == 5
        assert record.cost_per_accepted_request == pytest.approx(20.0)

    def test_all_rejected_is_infinite(self):
        record = self._record(requests=4, rejection=1.0, cost=50.0)
        assert record.cost_per_accepted_request == float("inf")

    def test_exposed_via_aggregate(self):
        from repro.evaluation.metrics import aggregate_records

        agg = aggregate_records(
            [self._record(10, 0.0, 100.0), self._record(10, 0.5, 100.0)]
        )
        assert agg.metric("cost_per_request") == pytest.approx((10.0 + 20.0) / 2)


class TestCli:
    def test_parser_grammar(self):
        parser = build_parser()
        args = parser.parse_args(["compare", "--servers", "8", "--vms", "16"])
        assert args.command == "compare" and args.servers == 8

    def test_table3_runs(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "populationSize" in out and "10000" in out.replace(",", "")

    def test_compare_runs(self, capsys):
        code = main(
            [
                "compare",
                "--servers",
                "8",
                "--vms",
                "12",
                "--seed",
                "1",
                "--population",
                "8",
                "--evaluations",
                "64",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "round_robin" in out and "nsga3_tabu" in out

    def test_generate_writes_loadable_json(self, tmp_path, capsys):
        out_path = tmp_path / "scenario.json"
        code = main(
            ["generate", "--servers", "6", "--vms", "10", "--out", str(out_path)]
        )
        assert code == 0
        scenario = scenario_from_dict(load_json(out_path))
        assert scenario.infrastructure.m == 6

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestUNSGA3:
    _FAST = NSGAConfig(population_size=16, max_evaluations=320, seed=2)

    def test_runs_and_respects_budget(self, small_infra, small_request):
        evaluator = PopulationEvaluator(small_infra, small_request)
        result = UNSGA3(self._FAST).run(evaluator)
        assert result.evaluations <= self._FAST.max_evaluations
        assert len(result.population) == self._FAST.population_size
        assert result.algorithm == "unsga3"

    def test_deterministic(self, small_infra, small_request):
        runs = []
        for _ in range(2):
            evaluator = PopulationEvaluator(small_infra, small_request)
            runs.append(UNSGA3(self._FAST).run(evaluator))
        assert np.array_equal(
            runs[0].population.genomes, runs[1].population.genomes
        )

    def test_with_repair_reaches_feasibility(self, small_infra, small_request):
        repair = TabuRepair(CompiledProblem(small_infra, small_request), seed=0)
        evaluator = PopulationEvaluator(small_infra, small_request)
        result = UNSGA3(self._FAST, handler=RepairHandling(repair)).run(evaluator)
        assert result.best_violations() == 0

    def test_selection_pressure_at_least_random(self, small_infra, small_request):
        """U-NSGA-III's tournament must not converge worse than plain
        NSGA-III's random mating on the same budget (same seeds)."""
        def best(cls):
            evaluator = PopulationEvaluator(small_infra, small_request)
            result = cls(self._FAST).run(evaluator)
            return result.best_objectives().sum()

        # Not a strict theorem per-instance; assert it is not wildly
        # worse (50% headroom) so regressions in the tournament logic
        # are caught without flakiness.
        assert best(UNSGA3) <= 1.5 * best(NSGA3) + 1e-9


class TestCliDiagnose:
    def test_clean_scenario_exit_zero(self, tmp_path, capsys):
        out_path = tmp_path / "s.json"
        assert main(
            ["generate", "--servers", "8", "--vms", "12", "--out", str(out_path)]
        ) == 0
        capsys.readouterr()
        assert main(["diagnose", str(out_path)]) == 0
        assert "no provable infeasibility" in capsys.readouterr().out

    def test_broken_scenario_exit_one(self, tmp_path, capsys):
        from repro.serialization import (
            load_json,
            save_json,
        )

        out_path = tmp_path / "s.json"
        main(["generate", "--servers", "8", "--vms", "12", "--out", str(out_path)])
        data = load_json(out_path)
        # Inflate one VM's demand beyond any server.
        data["requests"][0]["demand"][0] = [1e9, 1e9, 1e9]
        save_json(data, out_path)
        capsys.readouterr()
        assert main(["diagnose", str(out_path)]) == 1
        assert "unhostable_resource" in capsys.readouterr().out
