"""Unit tests: the ``scenario`` subcommand and ``verify --scenario``."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.cli import build_parser, main
from repro.utils import timers
from repro.verify import FuzzConfig, run_fuzz
from repro.workloads.scenarios import scenario_names


class TestParserGrammar:
    def test_scenario_list_parses(self):
        args = build_parser().parse_args(["scenario", "list"])
        assert (args.command, args.action, args.name) == (
            "scenario",
            "list",
            None,
        )

    def test_scenario_run_parses_with_allocator(self):
        args = build_parser().parse_args(
            ["scenario", "run", "steady_churn", "--seed", "7",
             "--allocator", "round_robin"]
        )
        assert args.action == "run"
        assert args.name == "steady_churn"
        assert args.seed == 7
        assert args.allocator == "round_robin"

    def test_verify_scenario_flag_is_repeatable(self):
        args = build_parser().parse_args(
            ["verify", "--fuzz", "1", "--scenario", "steady_churn",
             "--scenario", "diurnal"]
        )
        assert args.scenario == ["steady_churn", "diurnal"]

    def test_verify_scenario_defaults_off(self):
        args = build_parser().parse_args(["verify", "--fuzz", "1"])
        assert args.scenario is None


class TestScenarioCommand:
    def test_list_prints_every_registered_name(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_run_prints_metrics_and_fingerprints(self, capsys):
        assert main(
            ["scenario", "run", "steady_churn", "--seed", "7"]
        ) == 0
        out = capsys.readouterr().out
        assert "steady_churn" in out
        assert "event fingerprint" in out
        assert "ledger" in out

    def test_run_without_name_errors(self, capsys):
        assert main(["scenario", "run"]) == 2
        assert "needs a scenario name" in capsys.readouterr().err

    def test_run_unknown_name_errors(self, capsys):
        assert main(["scenario", "run", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_unknown_allocator_errors(self, capsys):
        assert main(
            ["scenario", "run", "steady_churn", "--allocator", "nope"]
        ) == 2
        assert "unknown allocator" in capsys.readouterr().err

    def test_run_is_deterministic_per_seed(self, capsys, monkeypatch):
        # The output's time column sums Stopwatch readings; a frozen
        # clock makes the whole output comparable.
        monkeypatch.setattr(timers, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        main(["scenario", "run", "diurnal", "--seed", "3"])
        first = capsys.readouterr().out
        main(["scenario", "run", "diurnal", "--seed", "3"])
        assert capsys.readouterr().out == first


class TestVerifyScenarioRouting:
    def test_unknown_scenario_rejected_before_fuzzing(self, capsys):
        assert main(["verify", "--fuzz", "1", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_fuzz_config_drives_dynamic_checks(self):
        report = run_fuzz(
            FuzzConfig(
                scenarios=1,
                seed=3,
                sizes=((4, 8),),
                dynamic_scenarios=("steady_churn",),
            )
        )
        assert report.ok, report.format()
        assert report.stats["dynamic"] > 0
        assert "dynamic=" in report.format()

    @pytest.mark.slow
    def test_cli_all_expands_to_whole_registry(self, capsys):
        assert main(
            ["verify", "--fuzz", str(len(scenario_names())),
             "--scenario", "all", "--sizes", "4x8"]
        ) == 0
        out = capsys.readouterr().out
        assert "dynamic=" in out
        assert "verify.comparisons{check=dynamic}" in out
