"""Seeded random-scenario fuzzing over the whole conformance suite.

One fuzz iteration generates a random scenario (sizes cycle through
``FuzzConfig.sizes``; tightness, heterogeneity and affinity density are
drawn per scenario), then drives the three conformance layers:

1. **differential oracle** — a random walk of moves over the merged
   instance, replayed through the incremental evaluator and
   cross-checked against the reference evaluator, whose settings
   (committed usage, previous assignment, downtime mode, per-server
   operating cost, strict load cap, energy weight) are drawn per
   scenario (plus LP/CP backends when the instance qualifies);
2. **allocator invariants** — a real allocator (round robin by
   default: deterministic and fast) places the window and its
   :class:`~repro.allocator.BatchOutcome` must satisfy every invariant
   in the catalog;
3. **metamorphic laws** — the outcome's placement is pushed through
   all four transformation laws.

Everything is derived from one seed, so a failing iteration is
reproducible from the ``(seed, index)`` pair and size that prefix each
of its mismatches.  The campaign returns one ``fuzz``
:class:`~repro.verify.checks.Report` folding in every layer's report.
``python -m repro verify --fuzz N --seed S`` is a thin shell around
:func:`run_fuzz`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.allocator import Allocator
from repro.engine import CompiledProblem
from repro.model.placement import UNPLACED
from repro.model.request import Request
from repro.verify.checks import Mismatch, Report
from repro.verify.invariants import CheckContext, run_invariants
from repro.verify.metamorphic import run_laws
from repro.verify.oracle import DifferentialOracle
from repro.workloads.generator import ScenarioGenerator, ScenarioSpec

__all__ = ["FuzzConfig", "run_fuzz"]

#: Oracle parity checkpoint cadence along each replay walk.
_CHECKPOINT_EVERY = 40


def _default_allocator() -> Allocator:
    from repro.baselines.round_robin import RoundRobinAllocator

    return RoundRobinAllocator()


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs of one fuzzing campaign.

    Parameters
    ----------
    scenarios:
        Iterations to run (``--fuzz N``).
    seed:
        Master seed; every iteration derives its own stream from it.
    sizes:
        (servers, vms) pairs cycled across iterations.
    walk_detours:
        Random intermediate moves per VM in the oracle's replay walk.
    allocator_factory:
        Builds the allocator whose outcomes feed the invariant and
        metamorphic layers.
    perturb:
        Fault-injection ``(term, delta)`` forwarded to the oracle
        (self-test: the campaign must then fail).
    dynamic_scenarios:
        Registered dynamic scenario names (``--scenario NAME``, see
        :mod:`repro.workloads.scenarios`).  When non-empty, each fuzz
        iteration also compiles one of them (cycled, at an
        iteration-derived seed) and checks the dynamic metamorphic
        laws of :mod:`repro.verify.dynamic` against its stream.
    """

    scenarios: int = 20
    seed: int = 0
    sizes: tuple[tuple[int, int], ...] = ((4, 8), (8, 16), (16, 32))
    walk_detours: int = 2
    allocator_factory: Callable[[], Allocator] = field(
        default=_default_allocator
    )
    perturb: tuple[str, float] | None = None
    dynamic_scenarios: tuple[str, ...] = ()


def _random_spec(
    rng: np.random.Generator, servers: int, vms: int
) -> ScenarioSpec:
    return ScenarioSpec(
        servers=servers,
        datacenters=min(servers, int(rng.integers(1, 4))),
        vms=vms,
        tightness=float(rng.uniform(0.4, 1.1)),
        heterogeneity=float(rng.uniform(0.0, 0.5)),
        affinity_probability=float(rng.uniform(0.3, 0.9)),
    )


def run_fuzz(config: FuzzConfig | None = None) -> Report:
    """Run one fuzzing campaign; see the module docstring for shape.

    Every layer's comparisons and mismatches fold into the returned
    ``fuzz`` report, each mismatch prefixed with its scenario's index,
    seed and size; ``stats`` counts the scenarios run, the invariant
    checkers that ran and each layer's comparisons.
    """
    config = config or FuzzConfig()
    report = Report(
        "fuzz", f"seed={config.seed}", stats={"scenarios": 0, "invariants": 0}
    )
    master = np.random.SeedSequence(config.seed)

    for index, child in enumerate(master.spawn(config.scenarios)):
        rng = np.random.default_rng(child)
        servers, vms = config.sizes[index % len(config.sizes)]
        where = f"scenario {index} (seed={config.seed}, {servers}x{vms})"
        spec = _random_spec(rng, servers, vms)
        scenario = ScenarioGenerator(
            spec, seed=np.random.default_rng(child.spawn(1)[0])
        ).generate()
        merged, owner = Request.concatenate(scenario.requests)
        compiled = CompiledProblem.compile(scenario.infrastructure, merged)

        # 1. Differential oracle over a random target assignment (some
        # genes deliberately unplaced) reached through a move walk.
        target = rng.integers(0, scenario.infrastructure.m, size=merged.n)
        target[rng.random(merged.n) < 0.1] = UNPLACED
        with_previous = bool(rng.random() < 0.5)
        previous = (
            rng.integers(0, scenario.infrastructure.m, size=merged.n)
            if with_previous
            else None
        )
        # Committed usage from earlier windows in half the scenarios: a
        # uniform 0-40% of each cell's effective capacity.
        capacity = scenario.infrastructure.effective_capacity
        base_usage = (
            rng.uniform(0.0, 0.4, size=capacity.shape) * capacity
            if rng.random() < 0.5
            else None
        )
        evaluator = compiled.evaluator(
            base_usage=base_usage,
            previous_assignment=previous,
            downtime_mode="literal" if rng.random() < 0.3 else "shortfall",
            per_server_operating=bool(rng.random() < 0.3),
            include_assignment_constraint=True,
            qos_strict=bool(rng.random() < 0.3),
            energy_weight=0.5 if rng.random() < 0.3 else 0.0,
        )
        oracle = DifferentialOracle(
            evaluator, compiled=compiled, perturb=config.perturb
        )
        report.merge(
            oracle.replay(
                target,
                seed=rng,
                detours=config.walk_detours,
                checkpoint_every=_CHECKPOINT_EVERY,
            ),
            f"{where} oracle",
        )

        # 2. A real allocator's outcome must satisfy every invariant.
        allocator = config.allocator_factory()
        try:
            outcome = allocator.allocate(
                scenario.infrastructure, scenario.requests
            )
        finally:
            allocator.close()
        ctx = CheckContext(
            infrastructure=scenario.infrastructure,
            requests=scenario.requests,
            outcome=outcome,
        )
        invariant_report = run_invariants(ctx)
        report.stats["invariants"] += len(invariant_report.checked)
        # run_invariants counted these under verify.invariants.*.
        report.mismatches.extend(
            Mismatch(f"{where} invariants", v.invariant, v.message)
            for v in invariant_report.violations
        )

        # 2b. Fully placed outcomes also go through the oracle with the
        # default scoring modes and the same committed usage, where the
        # LP relaxation bound and the CP optimum cross-checks apply.
        if np.all(outcome.assignment != UNPLACED):
            outcome_oracle = DifferentialOracle(
                compiled.evaluator(
                    base_usage=base_usage, include_assignment_constraint=True
                ),
                compiled=compiled,
                perturb=config.perturb,
            )
            report.merge(
                outcome_oracle.replay(
                    outcome.assignment,
                    seed=rng,
                    detours=config.walk_detours,
                    checkpoint_every=_CHECKPOINT_EVERY,
                ),
                f"{where} oracle",
            )

        # 3. Metamorphic laws over that same placement.
        report.merge(
            run_laws(
                scenario.infrastructure,
                scenario.requests,
                outcome.assignment,
                rng=rng,
                previous_assignment=previous,
            ),
            f"{where} metamorphic",
        )

        # 4. Optional dynamic stage: compile one registered scenario at
        # an iteration-derived seed and check the stream-level laws.
        if config.dynamic_scenarios:
            from repro.verify.dynamic import check_dynamic_laws

            name = config.dynamic_scenarios[
                index % len(config.dynamic_scenarios)
            ]
            dynamic_seed = int(rng.integers(2**31))
            report.merge(
                check_dynamic_laws(
                    name,
                    seed=dynamic_seed,
                    allocator_factory=config.allocator_factory,
                ),
                f"{where} dynamic {name} seed={dynamic_seed}",
            )

        report.stats["scenarios"] += 1
    return report
