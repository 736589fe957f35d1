"""Kill-and-resume determinism verification.

The checkpoint subsystem's contract (``docs/RUNBOOK.md``) is byte
identity: a run killed at a checkpoint boundary and resumed from disk
finishes exactly as the uninterrupted run would have — same final
population bytes, same selected assignment, same evaluation counter.
This module proves the contract the way :mod:`repro.verify.parallel`
proves the engine's: run all three trajectories for real (baseline,
killed, resumed) and compare raw bytes.

The kill is simulated deterministically rather than with real signals:
the first run gets a truncated evaluation budget plus checkpointing, so
it stops at a generation boundary with a checkpoint on disk — exactly
the state a SIGTERM'd run flushes.  Because
:func:`~repro.runtime.checkpoint.trajectory_key` excludes stopping
criteria, a second run with the full budget and the same checkpoint
directory auto-resumes from that boundary.

Two layers are compared per worker count (0 = serial):

1. **engine level** — NSGA-III + tabu repair over a compiled instance;
   final population genomes/objectives/violations and the evaluation
   counter must match the uninterrupted baseline byte for byte, and the
   second run must actually have resumed;
2. **allocator level** — a full :class:`NSGA3TabuAllocator.allocate`,
   comparing assignment, objectives and acceptance mask.

``python -m repro verify --check resume`` runs this from the CLI.
``time_limit`` must stay unset here: deadline-bounded repair is
wall-clock dependent and legitimately breaks byte identity.
"""

from __future__ import annotations

import tempfile

from repro.ea.config import NSGAConfig
from repro.ea.constraint_handling import RepairHandling
from repro.ea.nsga3 import NSGA3
from repro.engine.compiled import CompiledProblem
from repro.engine.parallel import ParallelEngine
from repro.model.request import Request
from repro.runtime.checkpoint import CheckpointManager
from repro.tabu.repair import TabuRepair
from repro.verify.checks import Report
from repro.workloads.generator import ScenarioGenerator, ScenarioSpec

__all__ = ["check_resume_determinism"]


def check_resume_determinism(
    worker_counts: tuple[int, ...] = (0, 2),
    *,
    seed: int = 0,
    servers: int = 6,
    vms: int = 12,
    tightness: float = 0.85,
    population_size: int = 12,
    max_evaluations: int = 144,
    checkpoint_every: int = 2,
) -> Report:
    """Prove kill-and-resume byte-identity on one seeded scenario.

    For each worker count three trajectories run: the uninterrupted
    baseline (full budget, no checkpoints), the "killed" run (half
    budget, checkpointing every ``checkpoint_every`` generations) and
    the resumed run (full budget, same checkpoint directory).  The
    instance is kept tight so the repair path carries real state (the
    parallel batch counter) across the checkpoint.
    """
    worker_counts = tuple(int(w) for w in worker_counts)
    resumed_generations: list[int] = []
    report = Report(
        "resume",
        f"{servers}x{vms} seed={seed} workers={list(worker_counts)}",
        stats={"resumed_generations": resumed_generations},
    )

    spec = ScenarioSpec(
        servers=servers, datacenters=2, vms=vms, tightness=tightness
    )
    scenario = ScenarioGenerator(spec, seed=seed).generate()
    merged, _ = Request.concatenate(scenario.requests)
    compiled = CompiledProblem(scenario.infrastructure, merged)
    truncated_budget = max(
        max_evaluations // 2, population_size * (checkpoint_every + 2)
    )

    def engine_run(
        engine: ParallelEngine | None,
        budget: int,
        manager: CheckpointManager | None,
    ):
        config = NSGAConfig(
            population_size=population_size,
            max_evaluations=budget,
            reference_point_divisions=4,
            checkpoint_every=checkpoint_every,
            seed=seed,
        )
        repair = TabuRepair(compiled, seed=config.seed, engine=engine)
        evaluator = compiled.evaluator()
        nsga = NSGA3(config=config, handler=RepairHandling(repair))
        return nsga.run(
            evaluator,
            checkpoint_manager=manager,
            fingerprint=compiled.fingerprint,
        )

    def allocator_run(n_workers: int, budget: int, directory: str | None):
        from repro.hybrid.nsga_allocators import NSGA3TabuAllocator

        config = NSGAConfig(
            population_size=population_size,
            max_evaluations=budget,
            reference_point_divisions=4,
            n_workers=n_workers,
            checkpoint_dir=directory,
            checkpoint_every=checkpoint_every,
            seed=seed,
        )
        allocator = NSGA3TabuAllocator(config=config)
        try:
            return allocator.allocate(scenario.infrastructure, scenario.requests)
        finally:
            allocator.close()

    for n_workers in worker_counts:
        def pooled() -> ParallelEngine | None:
            return ParallelEngine(n_workers) if n_workers >= 1 else None

        # Engine layer: baseline, killed (truncated budget), resumed.
        engine = pooled()
        try:
            baseline = engine_run(engine, max_evaluations, None)
        finally:
            if engine is not None:
                engine.close()
        with tempfile.TemporaryDirectory() as directory:
            manager = CheckpointManager(directory)
            engine = pooled()
            try:
                engine_run(engine, truncated_budget, manager)
            finally:
                if engine is not None:
                    engine.close()
            engine = pooled()
            try:
                resumed = engine_run(engine, max_evaluations, manager)
            finally:
                if engine is not None:
                    engine.close()
        where = f"engine n_workers={n_workers}"
        if resumed.resumed_from is None:
            report.flag(
                where, "resumed_from", "second run did not pick up the checkpoint"
            )
        else:
            resumed_generations.append(resumed.resumed_from)
        report.compare(
            where,
            {
                "population.genomes": (
                    baseline.population.genomes,
                    resumed.population.genomes,
                ),
                "population.objectives": (
                    baseline.population.objectives,
                    resumed.population.objectives,
                ),
                "population.violations": (
                    baseline.population.violations,
                    resumed.population.violations,
                ),
                "evaluations": (baseline.evaluations, resumed.evaluations),
            },
        )

        # Allocator layer: the full merge/repair/select/post-process path.
        baseline_outcome = allocator_run(n_workers, max_evaluations, None)
        with tempfile.TemporaryDirectory() as directory:
            allocator_run(n_workers, truncated_budget, directory)
            resumed_outcome = allocator_run(n_workers, max_evaluations, directory)
        where = f"allocator n_workers={n_workers}"
        if "resumed_from" not in resumed_outcome.extra:
            report.flag(
                where, "resumed_from", "second allocate did not pick up the checkpoint"
            )
        report.compare(
            where,
            {
                "outcome.assignment": (
                    baseline_outcome.assignment,
                    resumed_outcome.assignment,
                ),
                "outcome.objectives": (
                    baseline_outcome.objectives,
                    resumed_outcome.objectives,
                ),
                "outcome.accepted": (
                    baseline_outcome.accepted,
                    resumed_outcome.accepted,
                ),
            },
        )
    return report
