"""Unit tests for the checkpoint/resume runtime subsystem."""

import json
import os
import signal
import threading

import numpy as np
import pytest

from repro.ea.config import NSGAConfig
from repro.ea.constraint_handling import NoHandling, RepairHandling
from repro.ea.nsga3 import NSGA3
from repro.engine.compiled import CompiledProblem
from repro.errors import CheckpointError, ValidationError
from repro.model.request import Request
from repro.objectives import PopulationEvaluator
from repro.objectives.preference import set_preference
from repro.portfolio import PortfolioAllocator
from repro.runtime.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointManager,
    RunCheckpoint,
    atomic_write_json,
    read_checked_json,
    trajectory_key,
)
from repro.runtime.signals import (
    GracefulShutdown,
    clear_shutdown,
    request_shutdown,
    shutdown_requested,
)
from repro.tabu.repair import TabuRepair
from repro.utils.timers import Stopwatch
from repro.workloads.generator import ScenarioGenerator, ScenarioSpec


def _checkpoint(generation=2, fingerprint="f" * 32, config_key="c" * 32):
    rng = np.random.default_rng(0)
    return RunCheckpoint(
        algorithm="nsga3",
        fingerprint=fingerprint,
        config_key=config_key,
        generation=generation,
        evaluations=generation * 10,
        elapsed=1.25,
        genomes=np.arange(12, dtype=np.int64).reshape(3, 4),
        objectives=np.linspace(0.0, 1.0, 9).reshape(3, 3),
        violations=np.array([0, 1, 2], dtype=np.int64),
        rng_state=rng.bit_generator.state,
        stalled=1,
        best_violations=0,
        best_aggregate=3.5,
        repair_state={"batch_counter": 7},
        history=(),
    )


class TestEnvelope:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "state.json"
        payload = {"x": 1.5, "y": [1, 2, 3]}
        atomic_write_json(path, "test_state", payload)
        assert read_checked_json(path, "test_state") == payload

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            read_checked_json(tmp_path / "absent.json", "test_state")

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        atomic_write_json(path, "other_kind", {"x": 1})
        with pytest.raises(CheckpointError, match="other_kind"):
            read_checked_json(path, "test_state")

    def test_version_skew_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        atomic_write_json(path, "test_state", {"x": 1})
        envelope = json.loads(path.read_text())
        envelope["version"] = CHECKPOINT_VERSION + 1
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="version"):
            read_checked_json(path, "test_state")

    def test_checksum_drift_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        atomic_write_json(path, "test_state", {"x": 1})
        envelope = json.loads(path.read_text())
        envelope["data"]["x"] = 2  # corrupt without updating checksum
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="checksum"):
            read_checked_json(path, "test_state")

    def test_torn_write_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        atomic_write_json(path, "test_state", {"x": 1})
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="unreadable"):
            read_checked_json(path, "test_state")

    def test_floats_survive_exactly(self, tmp_path):
        path = tmp_path / "state.json"
        values = [0.1, 1 / 3, np.nextafter(2.0, 3.0), 1e-308]
        atomic_write_json(path, "test_state", {"v": values})
        out = read_checked_json(path, "test_state")["v"]
        assert all(a == b for a, b in zip(values, out))


class TestTrajectoryKey:
    def test_stopping_criteria_excluded(self):
        base = NSGAConfig(population_size=8, max_evaluations=100, seed=3)
        longer = base.with_(max_evaluations=10_000)
        timed = base.with_(time_limit=5.0)
        workers = base.with_(n_workers=4)
        key = trajectory_key(base, "nsga3")
        assert trajectory_key(longer, "nsga3") == key
        assert trajectory_key(timed, "nsga3") == key
        assert trajectory_key(workers, "nsga3") == key

    def test_trajectory_fields_included(self):
        base = NSGAConfig(population_size=8, max_evaluations=100, seed=3)
        key = trajectory_key(base, "nsga3")
        assert trajectory_key(base.with_(seed=4), "nsga3") != key
        assert trajectory_key(base.with_(population_size=10), "nsga3") != key
        assert trajectory_key(base.with_(sbx_rate=0.5), "nsga3") != key
        assert trajectory_key(base, "nsga2") != key

    def test_default_key_is_unchanged(self):
        """With no active preference order the key is the one earlier
        releases wrote, so their checkpoints still resume."""
        base = NSGAConfig(population_size=8, max_evaluations=100, seed=3)
        assert trajectory_key(base, "nsga3") == "652bf678b64034b8a3e103a1adc031ec"

    def test_active_preference_separates_trajectories(self, small_infra, small_request):
        """The active order picks the incumbent the EA's stall detector
        watches and the pooled pick the portfolio reseeds from, so both
        keys hold it; clearing it restores the default key."""
        config = NSGAConfig(population_size=8, max_evaluations=16, seed=3)
        evaluator = PopulationEvaluator(small_infra, small_request)

        def keys():
            run = NSGA3(config).start_run(evaluator)
            return run.config_key, PortfolioAllocator(config=config).config_key

        default = keys()
        try:
            set_preference("qos>cost")
            ordered = keys()
            set_preference("migration")
            other = keys()
        finally:
            set_preference(None)
        assert keys() == default
        for index in (0, 1):
            assert len({default[index], ordered[index], other[index]}) == 3

    def test_handler_separates_trajectories(self):
        spec = ScenarioSpec(servers=4, datacenters=1, vms=6, tightness=0.5)
        scenario = ScenarioGenerator(spec, seed=0).generate()
        merged, _ = Request.concatenate(scenario.requests)
        repair = TabuRepair(CompiledProblem(scenario.infrastructure, merged))
        assert NoHandling().trajectory_tag() != RepairHandling(repair).trajectory_tag()


class TestCheckpointManager:
    def test_save_load_round_trip(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        ckpt = _checkpoint()
        path = manager.save(ckpt)
        loaded = manager.load(path)
        assert loaded.generation == ckpt.generation
        assert loaded.genomes.tobytes() == ckpt.genomes.tobytes()
        assert loaded.objectives.tobytes() == ckpt.objectives.tobytes()
        assert loaded.rng_state == ckpt.rng_state
        assert loaded.repair_state == ckpt.repair_state

    def test_latest_prefers_newest(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        for generation in (2, 4, 6):
            manager.save(_checkpoint(generation=generation))
        latest = manager.latest("f" * 32, "c" * 32)
        assert latest is not None and latest.generation == 6

    def test_latest_skips_torn_write(self, tmp_path):
        """A kill mid-write of generation 6 must fall back to 4 intact."""
        manager = CheckpointManager(tmp_path)
        manager.save(_checkpoint(generation=2))
        manager.save(_checkpoint(generation=4))
        torn = manager.path_for(_checkpoint(generation=6))
        blob = manager.path_for(_checkpoint(generation=4)).read_text()
        torn.write_text(blob[: len(blob) // 3])  # simulated torn write
        latest = manager.latest("f" * 32, "c" * 32)
        assert latest is not None and latest.generation == 4

    def test_interrupted_atomic_write_leaves_previous_valid(
        self, tmp_path, monkeypatch
    ):
        """Dying inside atomic_write_json never clobbers the old file."""
        manager = CheckpointManager(tmp_path)
        manager.save(_checkpoint(generation=2))
        before = manager.path_for(_checkpoint(generation=2)).read_bytes()

        def exploding_replace(src, dst):
            raise OSError("killed mid-rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            manager.save(_checkpoint(generation=2, config_key="c" * 32))
        monkeypatch.undo()
        assert manager.path_for(_checkpoint(generation=2)).read_bytes() == before
        latest = manager.latest("f" * 32, "c" * 32)
        assert latest is not None and latest.generation == 2

    def test_retention_prunes_old_boundaries(self, tmp_path):
        manager = CheckpointManager(tmp_path, retain=2)
        for generation in (2, 4, 6, 8):
            manager.save(_checkpoint(generation=generation))
        names = sorted(p.name for p in tmp_path.glob("ckpt-*.json"))
        assert len(names) == 2
        assert names[0].endswith("g000006.json")
        assert names[1].endswith("g000008.json")

    def test_retain_validated(self, tmp_path):
        with pytest.raises(ValidationError):
            CheckpointManager(tmp_path, retain=0)

    def test_named_state_round_trip(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save_state("scheduler", "scheduler_checkpoint", {"clock": 2.0})
        assert manager.load_state("scheduler", "scheduler_checkpoint") == {
            "clock": 2.0
        }
        with pytest.raises(CheckpointError):
            manager.load_state("scheduler", "campaign_manifest")


class TestResumeRejection:
    @staticmethod
    def _scenario(seed):
        spec = ScenarioSpec(servers=5, datacenters=1, vms=8, tightness=0.6)
        return ScenarioGenerator(spec, seed=seed).generate()

    def _run(self, scenario, manager, budget=60):
        merged, _ = Request.concatenate(scenario.requests)
        compiled = CompiledProblem(scenario.infrastructure, merged)
        config = NSGAConfig(
            population_size=10,
            max_evaluations=budget,
            reference_point_divisions=4,
            checkpoint_every=1,
            seed=0,
        )
        engine = NSGA3(config=config, handler=NoHandling())
        return engine.run(
            compiled.evaluator(),
            checkpoint_manager=manager,
            fingerprint=compiled.fingerprint,
        )

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        """Resuming against a mutated scenario must fail loudly."""
        manager = CheckpointManager(tmp_path)
        self._run(self._scenario(seed=0), manager)
        stale = next(tmp_path.glob("ckpt-*.json"))
        checkpoint = manager.load(stale)

        mutated = self._scenario(seed=1)
        merged, _ = Request.concatenate(mutated.requests)
        compiled = CompiledProblem(mutated.infrastructure, merged)
        config = NSGAConfig(
            population_size=10,
            max_evaluations=60,
            reference_point_divisions=4,
            seed=0,
        )
        engine = NSGA3(config=config, handler=NoHandling())
        with pytest.raises(CheckpointError, match="scenario changed"):
            engine.run(
                compiled.evaluator(),
                resume_from=checkpoint,
                fingerprint=compiled.fingerprint,
            )

    def test_mutated_scenario_auto_resume_starts_fresh(self, tmp_path):
        """Auto-resume keys on the fingerprint: a different scenario in
        the same directory silently starts a fresh run."""
        manager = CheckpointManager(tmp_path)
        self._run(self._scenario(seed=0), manager)
        result = self._run(self._scenario(seed=1), manager)
        assert result.resumed_from is None

    def test_config_mismatch_rejected(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        scenario = self._scenario(seed=0)
        self._run(scenario, manager)
        checkpoint = manager.load(next(iter(sorted(tmp_path.glob("ckpt-*.json")))))

        merged, _ = Request.concatenate(scenario.requests)
        compiled = CompiledProblem(scenario.infrastructure, merged)
        config = NSGAConfig(
            population_size=10,
            max_evaluations=60,
            reference_point_divisions=4,
            seed=99,  # different trajectory
        )
        engine = NSGA3(config=config, handler=NoHandling())
        with pytest.raises(CheckpointError, match="configuration"):
            engine.run(
                compiled.evaluator(),
                resume_from=checkpoint,
                fingerprint=compiled.fingerprint,
            )


class TestStopwatchPrecharge:
    def test_elapsed_precharge(self):
        watch = Stopwatch(elapsed=2.5)
        assert watch.elapsed == 2.5
        watch.start()
        assert watch.elapsed >= 2.5

    def test_negative_precharge_rejected(self):
        with pytest.raises(ValueError):
            Stopwatch(elapsed=-0.1)


class TestSignals:
    def setup_method(self):
        clear_shutdown()

    def teardown_method(self):
        clear_shutdown()

    def test_request_and_clear(self):
        assert not shutdown_requested()
        request_shutdown()
        assert shutdown_requested()
        clear_shutdown()
        assert not shutdown_requested()

    def test_context_handles_sigterm(self):
        with GracefulShutdown():
            os.kill(os.getpid(), signal.SIGTERM)
            assert shutdown_requested()
        # Flag cleared and previous handler restored on exit.
        assert not shutdown_requested()

    def test_second_sigint_raises(self):
        with GracefulShutdown() as guard:
            guard._handle(signal.SIGINT, None)
            assert shutdown_requested()
            with pytest.raises(KeyboardInterrupt):
                guard._handle(signal.SIGINT, None)

    def test_noop_off_main_thread(self):
        seen = {}

        def body():
            with GracefulShutdown() as guard:
                seen["installed"] = guard._installed

        thread = threading.Thread(target=body)
        thread.start()
        thread.join()
        assert seen["installed"] is False
