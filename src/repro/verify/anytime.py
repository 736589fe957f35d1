"""Anytime-portfolio conformance verification.

The portfolio racer's contract (``docs/PORTFOLIO.md``) has three
provable halves, and this module proves all of them on one seeded
scenario the way :mod:`repro.verify.resume` proves the checkpoint
subsystem's — by running the real thing and comparing bytes:

1. **anytime monotonicity** — the pooled incumbent front's dominated
   hypervolume never shrinks as epochs accumulate: the
   :class:`~repro.portfolio.incumbents.IncumbentPool` only ever admits
   non-dominated feasible placements, so interrupting the race later
   can never hand back a worse plan;
2. **batch/stepwise parity and determinism** — ``allocate()`` (no
   deadline) is byte-identical to driving ``start()``/``step()`` to
   exhaustion and calling ``finish()``, and a second ``allocate()``
   with the same seed reproduces the first byte for byte;
3. **service wiring** — the background reoptimizer's shadow solve
   (:func:`~repro.service.reoptimizer.shadow_reoptimize`) really
   routes through the portfolio (its outcome reports
   ``algorithm="portfolio"``), not a leftover fixed-budget stack.

``python -m repro verify --check anytime`` runs this from the CLI.
Deadlines stay unset here — wall-clock cutoffs are legitimately
non-deterministic, only the epoch trajectory is byte-reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.ea.config import NSGAConfig
from repro.ea.hypervolume import hypervolume, reference_point
from repro.portfolio.racer import PortfolioAllocator
from repro.verify.checks import Report
from repro.workloads.generator import ScenarioGenerator, ScenarioSpec

__all__ = ["check_anytime_conformance"]


def check_anytime_conformance(
    *,
    seed: int = 0,
    servers: int = 6,
    vms: int = 12,
    tightness: float = 0.8,
    population_size: int = 12,
    max_evaluations: int = 120,
    members: str = "nsga3_tabu+cp+tabu",
) -> Report:
    """Prove the anytime portfolio contract on one seeded scenario.

    Three runs happen: a plain ``allocate()`` (the reference bytes), a
    manually stepped run recording the pooled front after every epoch
    (parity + monotonicity), and a second ``allocate()`` (determinism).
    A fourth, smaller solve goes through the live service's shadow
    reoptimizer to prove the wiring.
    """
    report = Report(
        "anytime", f"{servers}x{vms} seed={seed} members={members}"
    )

    spec = ScenarioSpec(
        servers=servers, datacenters=2, vms=vms, tightness=tightness
    )
    scenario = ScenarioGenerator(spec, seed=seed).generate()
    config = NSGAConfig(
        population_size=population_size,
        max_evaluations=max_evaluations,
        reference_point_divisions=4,
        seed=seed,
    )

    def solve_batch():
        allocator = PortfolioAllocator(config=config, members=members)
        try:
            return allocator.allocate(
                scenario.infrastructure, scenario.requests
            )
        finally:
            allocator.close()

    # 1. Reference bytes + 3. determinism.
    baseline = solve_batch()
    rerun = solve_batch()
    report.compare(
        "determinism",
        {
            "outcome.assignment": (baseline.assignment, rerun.assignment),
            "outcome.objectives": (baseline.objectives, rerun.objectives),
            "outcome.accepted": (baseline.accepted, rerun.accepted),
        },
    )

    # 2. Stepwise drive: epoch-granular fronts + parity with allocate().
    allocator = PortfolioAllocator(config=config, members=members)
    fronts: list[np.ndarray] = []
    epochs = 0
    try:
        run = allocator.start(scenario.infrastructure, scenario.requests)
        try:
            while run.step():
                epochs += 1
                if len(run.pool):
                    fronts.append(np.array(run.best_front(), copy=True))
            epochs += 1
            if len(run.pool):
                fronts.append(np.array(run.best_front(), copy=True))
            stepwise = run.finish()
        finally:
            run.close()
    finally:
        allocator.close()
    report.compare(
        "parity",
        {
            "outcome.assignment": (baseline.assignment, stepwise.assignment),
            "outcome.objectives": (baseline.objectives, stepwise.objectives),
            "outcome.accepted": (baseline.accepted, stepwise.accepted),
        },
    )

    # Monotone non-worsening pooled front: hypervolume under one shared
    # reference must never shrink from one epoch snapshot to the next.
    report.stats.update(epochs=epochs, front_snapshots=len(fronts))
    if not fronts:
        report.flag(
            "monotone", "pool", "incumbent pool never filled — no front to check"
        )
    else:
        reference = reference_point(np.vstack(fronts), margin=1.0)
        previous = -np.inf
        for index, front in enumerate(fronts):
            hv = hypervolume(front, reference)
            report.note(
                hv >= previous - 1e-9,
                "monotone",
                f"snapshot[{index}]",
                f"pooled-front hypervolume shrank {previous:.6f} -> {hv:.6f}",
            )
            previous = hv

    # 4. Service wiring: the shadow reoptimizer must race the portfolio.
    from repro.service.reoptimizer import shadow_reoptimize
    from repro.service.state import ServiceState

    state = ServiceState(scenario.infrastructure, seed=seed)
    state.admit(
        arrivals=[
            (f"vm-{index}", request)
            for index, request in enumerate(scenario.requests)
        ]
    )
    payload, _epoch = state.snapshot()
    result = shadow_reoptimize(
        scenario.infrastructure, payload, config, members=members
    )
    algorithm = result.get("algorithm")
    report.note(
        algorithm == "portfolio",
        "reoptimizer",
        "algorithm",
        f"shadow solve reported {algorithm!r}, expected 'portfolio'",
    )
    return report
