"""Seeded random-scenario fuzzing over the whole conformance suite.

One fuzz iteration generates a random scenario (sizes cycle through
``FuzzConfig.sizes``; tightness, heterogeneity and affinity density are
drawn per scenario), then drives the three conformance layers:

1. **differential oracle** — a random target assignment over the
   merged instance, scored by the reference evaluator under settings
   drawn per scenario (committed usage, previous assignment, energy
   weight) and cross-checked against the LP/CP backends when the
   instance qualifies.  About a tenth of the target's genes are
   unplaced; the target as drawn, before that, is complete and is
   replayed through the LP backend too;
2. **allocator invariants** — a real allocator (round robin by
   default: deterministic and fast) places the window and its
   :class:`~repro.allocator.BatchOutcome` must satisfy every invariant
   in the catalog;
3. **metamorphic laws** — the outcome's placement is pushed through
   all four transformation laws.

Everything is derived from one seed, so a failing iteration is
reproducible from the ``(seed, index)`` pair and size that prefix each
of its mismatches.  The campaign returns one ``fuzz``
:class:`~repro.verify.checks.Report` folding in every layer's report;
its ``cp_unproved`` stat sums the oracle's CP searches that ended
without a proof (they compared no cost bound).
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
    allocator_factory:
        Builds the allocator whose outcomes feed the invariant and
        metamorphic layers.
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
    allocator_factory: Callable[[], Allocator] = field(
        default=_default_allocator
    )
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


def _merge_oracle(report: Report, oracle: Report, where: str) -> None:
    """Fold one oracle replay into the campaign, its unproved CP
    searches into ``stats["cp_unproved"]``."""
    report.merge(oracle, where)
    report.stats["cp_unproved"] += oracle.stats.get("cp_unproved", 0)


def run_fuzz(config: FuzzConfig | None = None) -> Report:
    """Run one fuzzing campaign; see the module docstring for shape.

    Every layer's comparisons and mismatches fold into the returned
    ``fuzz`` report, each mismatch prefixed with its scenario's index,
    seed and size; ``stats`` counts the scenarios run, the invariant
    checkers that ran, the oracle's unproved CP searches and each
    layer's comparisons.
    """
    config = config or FuzzConfig()
    report = Report(
        "fuzz",
        f"seed={config.seed}",
        stats={"scenarios": 0, "invariants": 0, "cp_unproved": 0},
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
        # genes deliberately unplaced).
        drawn = rng.integers(0, scenario.infrastructure.m, size=merged.n)
        target = drawn.copy()
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
            include_assignment_constraint=True,
            energy_weight=0.5 if rng.random() < 0.3 else 0.0,
        )
        oracle = DifferentialOracle(evaluator)
        _merge_oracle(report, oracle.replay(target), f"{where} oracle")
        # The target as drawn is complete, so the LP backend checks it
        # under the drawn settings; the CP search would repeat itself.
        _merge_oracle(report, oracle.replay(drawn, cp=False), f"{where} oracle")

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
        # same committed usage, where the LP relaxation bound and the CP
        # optimum cross-checks apply.
        if np.all(outcome.assignment != UNPLACED):
            outcome_oracle = DifferentialOracle(
                compiled.evaluator(
                    base_usage=base_usage, include_assignment_constraint=True
                )
            )
            _merge_oracle(
                report, outcome_oracle.replay(outcome.assignment), f"{where} oracle"
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
