"""Kernel conformance verification.

The kernel layer's contract (``docs/PERFORMANCE.md``) is *bitwise*
equality: the ``numpy`` kernel every allocation runs must produce
byte-identical usage tensors, violation counts and objective vectors
to the ``reference`` kernel — the pre-kernel code paths kept verbatim.
``np.bincount`` accumulates duplicate indices in input order and the
group counts are integers, so exactness is achievable and therefore
demanded: any drift is a bug, not a tolerance question.

The checker drives fuzzed scenario instances plus the structural edge
cases vectorized code most often gets wrong — the empty population,
rows with every gene :data:`~repro.model.placement.UNPLACED`, the
single-server estate, ``int32`` genomes, an estate with zero-capacity
attributes, committed base usage, a tile with no overloaded cell and
two tiles at the paper's widest size (800 servers x 1600 VMs), one of
them fully placed like every EA genome — through both kernels,
comparing raw bytes against the reference at two levels:

1. **primitive level** — ``batch_usage`` / ``batch_active`` /
   ``batch_over_counts`` / ``batch_group_violations`` /
   ``server_min_qos`` on the same inputs (the group counts compare the
   numpy kernel's one vectorized pass with the reference kernel's one
   :func:`~repro.constraints.groups.group_violations` call per group
   and row);
2. **evaluator level** — full ``evaluate_population`` objectives and
   violations.

``python -m repro verify --check kernels`` runs this from the CLI.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.engine.compiled import CompiledProblem
from repro.engine.kernels import active_kernel, use_kernel
from repro.model.placement import UNPLACED
from repro.model.request import Request
from repro.verify.checks import Report
from repro.workloads.generator import ScenarioGenerator, ScenarioSpec

__all__ = ["check_kernel_conformance"]


def _population(
    rng: np.random.Generator, pop: int, n: int, m: int, unplaced: float
) -> np.ndarray:
    population = rng.integers(0, m, size=(pop, n), dtype=np.int64)
    if unplaced > 0.0 and population.size:
        mask = rng.random(population.shape) < unplaced
        population[mask] = UNPLACED
    return population


def _generated(seed: int, servers: int, vms: int, tightness: float) -> CompiledProblem:
    spec = ScenarioSpec(
        servers=servers,
        datacenters=max(1, servers // 4),
        vms=vms,
        tightness=tightness,
    )
    scenario = ScenarioGenerator(spec, seed=seed).generate()
    merged, _ = Request.concatenate(list(scenario.requests))
    return CompiledProblem(scenario.infrastructure, merged)


def _cases(seed: int, instances: int):
    """(name, compiled, population, base_usage) cases: fuzzed + edges.

    ``base_usage`` is the committed usage the evaluator is bound to
    (``None``: an empty estate).
    """
    rng = np.random.default_rng(seed)
    shapes = [(6, 14), (12, 30), (20, 48)]
    out = []
    for index in range(instances):
        servers, vms = shapes[index % len(shapes)]
        compiled = _generated(seed + index, servers, vms, tightness=0.9)
        pop = int(rng.integers(3, 17))
        population = _population(rng, pop, compiled.n, compiled.m, unplaced=0.05)
        out.append((f"fuzz[{index}] {servers}x{vms}", compiled, population, None))

    base = out[0][1]  # reuse the first fuzzed instance for edge shapes
    n, m = base.n, base.m
    infra = base.infrastructure
    out.append(("edge: empty population", base, np.empty((0, n), np.int64), None))
    out.append(
        (
            "edge: all-unplaced rows",
            base,
            np.full((4, n), UNPLACED, dtype=np.int64),
            None,
        )
    )
    out.append(
        (
            "edge: int32 genomes",
            base,
            _population(rng, 6, n, m, unplaced=0.1).astype(np.int32),
            None,
        )
    )

    single = _generated(seed + 101, 1, 6, tightness=0.6)
    out.append(
        (
            "edge: single-server estate",
            single,
            _population(rng, 5, single.n, 1, unplaced=0.2),
            None,
        )
    )

    # Every other server has no capacity on its first attribute: placed
    # demand there loads it to inf, an empty one stays at load 0.  The
    # last row stacks every VM on server 1, leaving the others empty.
    capacity = infra.capacity.copy()
    capacity[::2, 0] = 0.0
    zero = CompiledProblem(
        dataclasses.replace(infra, capacity=capacity), base.request
    )
    population = _population(rng, 5, n, m, unplaced=0.1)
    population[-1] = 1
    out.append(("edge: zero-capacity attributes", zero, population, None))

    committed = rng.random((m, infra.h)) * infra.capacity * 0.6
    out.append(
        (
            "edge: committed base usage",
            base,
            _population(rng, 6, n, m, unplaced=0.05),
            committed,
        )
    )

    # A thousandfold estate: no placement can reach any server's knee.
    roomy = CompiledProblem(
        dataclasses.replace(infra, capacity=infra.capacity * 1000.0),
        base.request,
    )
    out.append(
        (
            "edge: no overloaded cell",
            roomy,
            _population(rng, 6, n, m, unplaced=0.05),
            None,
        )
    )

    wide = _generated(seed + 202, 800, 1600, tightness=0.65)
    out.append(
        (
            "paper width: 800x1600",
            wide,
            _population(rng, 3, wide.n, wide.m, unplaced=0.01),
            None,
        )
    )
    # EA genomes are always fully placed, which is the branch the
    # evaluation takes on every NSGA generation.
    out.append(
        (
            "paper width: 800x1600 fully placed",
            wide,
            _population(rng, 16, wide.n, wide.m, unplaced=0.0),
            None,
        )
    )
    return out


def _snapshot(
    compiled: CompiledProblem,
    population: np.ndarray,
    base_usage: np.ndarray | None = None,
) -> dict:
    """Everything one kernel computes for (instance, population)."""
    evaluator = compiled.evaluator(
        include_assignment_constraint=True, base_usage=base_usage
    )
    capacity = evaluator.constraints.capacity
    infra = compiled.infrastructure
    kern = active_kernel()
    population64 = np.ascontiguousarray(population, dtype=np.int64)
    usage = capacity.batch_usage(population64)
    out = {
        "batch_usage": usage,
        "batch_over_counts": kern.batch_over_counts(
            usage, capacity.threshold
        ),
        "batch_active": kern.batch_active(population64, infra.m),
        "batch_group_violations": evaluator.constraints.batch_group_violations(
            population64
        ),
        "server_min_qos": kern.server_min_qos(
            usage,
            evaluator.downtime.base_usage,
            infra.capacity,
            infra.max_load,
            infra.max_qos,
        ),
    }
    result = evaluator.evaluate_population(population)
    out["objectives"] = result.objectives
    out["violations"] = result.violations
    return out


def check_kernel_conformance(
    *,
    seed: int = 0,
    instances: int = 3,
) -> Report:
    """Prove the numpy kernel bitwise equal to the reference on fuzzed + edge-case inputs."""
    cases = _cases(seed, instances)
    report = Report(
        "kernels",
        f"seed={seed} backends=reference,numpy",
        stats={"cases": len(cases)},
    )
    for name, compiled, population, base_usage in cases:
        with use_kernel("reference"):
            ref = _snapshot(compiled, population, base_usage)
        with use_kernel("numpy"):
            got = _snapshot(compiled, population, base_usage)
        report.compare(
            f"numpy: {name}", {key: (ref[key], got[key]) for key in ref}
        )
    return report
