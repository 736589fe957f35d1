"""Kill-and-resume differential checks across the stack.

The acceptance bar of the checkpoint subsystem: a run killed at a
checkpoint boundary and resumed from disk finishes byte-identically to
the uninterrupted run — at the engine layer, through the allocator,
through the scheduler's snapshot, and through the sweep runner's cell
journal.
"""

import json

from repro import NSGAConfig, NSGA3TabuAllocator
from repro.baselines.round_robin import RoundRobinAllocator
from repro.evaluation.runner import ExperimentRunner
from repro.runtime.signals import clear_shutdown, request_shutdown
from repro.scheduler.window import TimeWindowScheduler
from repro.verify import check_resume_determinism
from repro.workloads.generator import ScenarioGenerator, ScenarioSpec


class TestKillAndResume:
    def test_serial_byte_identity(self):
        report = check_resume_determinism(
            worker_counts=(0,), max_evaluations=120
        )
        assert report.ok, report.format()
        assert report.stats["resumed_generations"]  # the resume actually happened

    def test_parallel_byte_identity(self):
        report = check_resume_determinism(
            worker_counts=(2,), max_evaluations=120
        )
        assert report.ok, report.format()
        assert report.stats["resumed_generations"]

    def test_truncated_budget_resumes_into_full_budget(self, tmp_path):
        """The trajectory key excludes stopping criteria by design."""
        spec = ScenarioSpec(servers=6, datacenters=2, vms=10, tightness=0.8)
        scenario = ScenarioGenerator(spec, seed=5).generate()

        def outcome_for(budget, directory):
            config = NSGAConfig(
                population_size=10,
                max_evaluations=budget,
                reference_point_divisions=4,
                checkpoint_dir=directory,
                checkpoint_every=2,
                seed=5,
            )
            allocator = NSGA3TabuAllocator(config=config)
            return allocator.allocate(scenario.infrastructure, scenario.requests)

        baseline = outcome_for(120, None)
        directory = str(tmp_path / "ckpt")
        killed = outcome_for(60, directory)
        assert "resumed_from" not in killed.extra
        resumed = outcome_for(120, directory)
        assert resumed.extra["resumed_from"] >= 2
        assert resumed.assignment.tobytes() == baseline.assignment.tobytes()
        assert resumed.objectives.tobytes() == baseline.objectives.tobytes()
        assert resumed.evaluations == baseline.evaluations


class TestSchedulerResume:
    @staticmethod
    def _feed(scheduler, scenario):
        for index, request in enumerate(scenario.requests[:6]):
            scheduler.submit(f"r{index}", request, at=0.8 * index)
        scheduler.schedule_departure("r0", at=2.4)
        scheduler.schedule_failure(1, at=1.2)
        scheduler.schedule_recovery(1, at=3.6)

    def test_snapshot_restores_byte_identical_trajectory(self):
        """A ``state_dict()`` taken through JSON and loaded into a fresh
        scheduler — the path the service's snapshot restore and shadow
        reoptimize take — continues byte-identically, round robin's
        pointer included."""
        spec = ScenarioSpec(servers=6, datacenters=2, vms=14, tightness=0.5)
        scenario = ScenarioGenerator(spec, seed=11).generate()
        scheduler = TimeWindowScheduler(
            scenario.infrastructure, RoundRobinAllocator(), window_length=1.0
        )
        self._feed(scheduler, scenario)
        scheduler.run_window()
        scheduler.run_window()

        payload = json.loads(json.dumps(scheduler.state_dict()))
        resumed = TimeWindowScheduler(
            scenario.infrastructure, RoundRobinAllocator(), window_length=1.0
        )
        resumed.load_state_dict(payload)
        assert resumed.clock == scheduler.clock
        assert resumed.failed_servers == scheduler.failed_servers
        assert resumed.state.tenants() == scheduler.state.tenants()
        assert (
            resumed.state.committed_usage.tobytes()
            == scheduler.state.committed_usage.tobytes()
        )
        for _ in range(3):
            original = scheduler.run_window()
            replayed = resumed.run_window()
            assert replayed.accepted == original.accepted
            assert replayed.rejected == original.rejected
            assert replayed.departures == original.departures
            assert replayed.failures == original.failures
            assert replayed.recoveries == original.recoveries
            if original.outcome is not None:
                assert (
                    replayed.outcome.assignment.tobytes()
                    == original.outcome.assignment.tobytes()
                )
        assert (
            resumed.state.committed_usage.tobytes()
            == scheduler.state.committed_usage.tobytes()
        )
        resumed.state.verify_consistency()


class TestSweepJournalResume:
    SPECS = [ScenarioSpec(servers=5, datacenters=1, vms=8, tightness=0.5)]

    @staticmethod
    def _signature(result):
        return [
            {k: v for k, v in record.__dict__.items() if k != "elapsed"}
            for record in result.records
        ]

    def test_journal_resume_reproduces_full_sweep(self, tmp_path):
        runner = ExperimentRunner(
            {"rr": RoundRobinAllocator}, runs=3, seed=2
        )
        baseline = runner.run_sweep(self.SPECS)
        first = runner.run_sweep(self.SPECS, checkpoint_dir=tmp_path)
        assert self._signature(first) == self._signature(baseline)

        # Simulate a kill after cell 1 plus a torn final journal line.
        journal = tmp_path / "cells.jsonl"
        lines = journal.read_text().splitlines()
        journal.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])

        second = runner.run_sweep(self.SPECS, checkpoint_dir=tmp_path)
        assert self._signature(second) == self._signature(baseline)
        assert len(journal.read_text().splitlines()) == 3
        # The journaled cell keeps its original elapsed reading.
        assert second.records[0].elapsed == first.records[0].elapsed

    def test_shutdown_request_interrupts_between_cells(self, tmp_path):
        clear_shutdown()
        runner = ExperimentRunner(
            {"rr": RoundRobinAllocator}, runs=2, seed=2
        )
        try:
            request_shutdown()
            result = runner.run_sweep(self.SPECS, checkpoint_dir=tmp_path)
        finally:
            clear_shutdown()
        assert result.interrupted
        assert result.records == []
        resumed = runner.run_sweep(self.SPECS, checkpoint_dir=tmp_path)
        assert not resumed.interrupted
        assert len(resumed.records) == 2
