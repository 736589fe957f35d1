"""Serial-vs-parallel determinism verification.

The parallel execution engine's contract (``docs/PARALLEL.md``) is that
fanning tabu repair out over worker processes changes *nothing* about
the result: for a given seed the final populations and the selected
assignment are byte-identical to the serial path at every worker
count.  This module drives that contract
the way the oracle drives evaluator parity — run both paths for real,
compare raw bytes, diagnose any drift.

Two layers are compared per worker count, and at each the pool must
really have run: an engine that fell back to serial is a mismatch, not
a pass, since both sides of the comparison would then be serial.

1. **engine level** — an NSGA-III + tabu-repair run over a compiled
   instance, serial handler vs pool-backed handler; the final
   population's genomes, objectives and violations must match byte for
   byte;
2. **allocator level** — a full :class:`NSGA3TabuAllocator.allocate`
   (merge, repair, selection, post-process), comparing the returned
   assignment and objective vector.

``python -m repro verify --check parallel=1,2,4`` runs this from the
CLI.
"""

from __future__ import annotations

from repro.ea.config import NSGAConfig
from repro.ea.constraint_handling import RepairHandling
from repro.ea.nsga3 import NSGA3
from repro.engine.compiled import CompiledProblem
from repro.engine.parallel import ParallelEngine
from repro.model.request import Request
from repro.tabu.repair import TabuRepair
from repro.verify.checks import Report
from repro.workloads.generator import ScenarioGenerator, ScenarioSpec

__all__ = ["check_parallel_determinism"]


def check_parallel_determinism(
    worker_counts: tuple[int, ...] = (1, 2, 4),
    *,
    seed: int = 0,
    servers: int = 6,
    vms: int = 12,
    tightness: float = 0.85,
    population_size: int = 12,
    max_evaluations: int = 120,
) -> Report:
    """Prove serial/parallel byte-identity on one seeded scenario.

    The instance is kept deliberately tight so every generation carries
    infeasible offspring and the repair fan-out actually runs; each
    worker count gets a fresh :class:`ParallelEngine` (its own pool)
    and both layers are compared against the serial baseline computed
    once.
    """
    worker_counts = tuple(int(w) for w in worker_counts)
    report = Report(
        "parallel",
        f"{servers}x{vms} seed={seed} workers={list(worker_counts)}",
    )

    spec = ScenarioSpec(
        servers=servers, datacenters=2, vms=vms, tightness=tightness
    )
    scenario = ScenarioGenerator(spec, seed=seed).generate()
    merged, _ = Request.concatenate(scenario.requests)
    compiled = CompiledProblem(scenario.infrastructure, merged)
    config = NSGAConfig(
        population_size=population_size,
        max_evaluations=max_evaluations,
        reference_point_divisions=4,
        seed=seed,
    )

    def engine_run(engine: ParallelEngine | None):
        repair = TabuRepair(
            scenario.infrastructure,
            merged,
            seed=config.seed,
            compiled=compiled,
            engine=engine,
        )
        evaluator = compiled.evaluator()
        nsga = NSGA3(config=config, handler=RepairHandling(repair))
        return nsga.run(evaluator).population

    def allocator_run(n_workers: int):
        """The outcome, and whether the allocator's pool stayed up."""
        from repro.hybrid.nsga_allocators import NSGA3TabuAllocator

        allocator = NSGA3TabuAllocator(config=config.with_(n_workers=n_workers))
        try:
            outcome = allocator.allocate(scenario.infrastructure, scenario.requests)
            engine = allocator.execution_engine
            return outcome, engine is not None and engine.available
        finally:
            allocator.close()

    def require_pool(ran: bool, n_workers: int, layer: str) -> None:
        if not ran:
            report.flag(
                f"{layer} n_workers={n_workers}",
                "engine.available",
                "the pool fell back to serial, so nothing ran in parallel",
            )

    serial_population = engine_run(None)
    serial_outcome, _ = allocator_run(0)

    for n_workers in worker_counts:
        with ParallelEngine(n_workers) as engine:
            population = engine_run(engine)
            require_pool(engine.available, n_workers, "engine")
        report.compare(
            f"engine n_workers={n_workers}",
            {
                "population.genomes": (
                    serial_population.genomes,
                    population.genomes,
                ),
                "population.objectives": (
                    serial_population.objectives,
                    population.objectives,
                ),
                "population.violations": (
                    serial_population.violations,
                    population.violations,
                ),
            },
        )
        outcome, pooled = allocator_run(n_workers)
        require_pool(pooled, n_workers, "allocator")
        report.compare(
            f"allocator n_workers={n_workers}",
            {
                "outcome.assignment": (
                    serial_outcome.assignment,
                    outcome.assignment,
                ),
                "outcome.objectives": (
                    serial_outcome.objectives,
                    outcome.objectives,
                ),
            },
        )
    return report
