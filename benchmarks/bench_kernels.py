"""Single-thread kernel throughput (a diagnostic).

Measures batch-evaluation ops/sec — full ``evaluate_population`` rows
per second, objectives + violations — for the reference and numpy
kernels, against the honest pre-kernel baseline: the same reference
code evaluating the population one row at a time (how the repair loop
and delta-scoring fallbacks consumed the evaluator before the kernel
layer batched them).

Workload: populations with ~2% UNPLACED genes — the partially-placed
regime the repair path actually sees; fully-placed batches were already
one vectorized pass pre-PR and gain ≈1x, which ``docs/PERFORMANCE.md``
says out loud.

Asserted every run, before any number is reported:

* the numpy kernel's objectives/violations are **byte-identical** to
  the reference kernel's on the measured population;
* at the largest measured size the numpy kernel clears
  ``BATCH_VS_PER_ROW_FLOOR`` over the per-row baseline.

``REPRO_BENCH_GATE=1`` additionally compares the numpy kernel's
ops/sec per size against the committed ``BENCH_kernels.json`` and fails
on a > ``REGRESSION_TOLERANCE`` drop — the CI bench-smoke gate.

Results land in ``BENCH_kernels.json`` at the repo root with a full
environment block (cpu_count, numpy and python versions); the default
sizes are smoke-scale and ``REPRO_BENCH_FULL=1`` adds the paper-scale
800 servers x 1600 VMs point.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import (
    bench_environment,
    bench_gate_enabled,
    full_sweep_enabled,
    scenario_for,
)
from repro.engine import CompiledProblem
from repro.engine.kernels import use_kernel
from repro.model.placement import UNPLACED
from repro.model.request import Request

#: Rows per measured batch — a generation's worth of genomes.
POP = 64
#: Fraction of genes knocked out to UNPLACED (the repair-path regime).
UNPLACED_FRACTION = 0.02
#: Enforced at the largest measured size: numpy batch vs per-row loop.
BATCH_VS_PER_ROW_FLOOR = 5.0
#: REPRO_BENCH_GATE=1 fails on a numpy ops/sec drop beyond this.
REGRESSION_TOLERANCE = 0.20
#: Minimum wall-clock per timing sample; repeats until reached.
MIN_SAMPLE_SECONDS = 0.25

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_kernels.json"


def _workload(servers: int, vms: int):
    """Compiled problem + a (POP, n) population with ~2% unplaced genes."""
    scenario = scenario_for(servers, vms, seed=3, tightness=0.9)
    merged, _ = Request.concatenate(list(scenario.requests))
    compiled = CompiledProblem.compile(scenario.infrastructure, merged)
    rng = np.random.default_rng(17)
    population = rng.integers(
        0, scenario.infrastructure.m, size=(POP, merged.n), dtype=np.int64
    )
    knockout = rng.random(population.shape) < UNPLACED_FRACTION
    population[knockout] = UNPLACED
    return compiled, population


def _rows_per_sec(run_once, rows: int) -> float:
    """ops/sec (rows evaluated per second) over >= MIN_SAMPLE_SECONDS."""
    run_once()  # warmup
    total_rows = 0
    t0 = time.perf_counter()
    while (elapsed := time.perf_counter() - t0) < MIN_SAMPLE_SECONDS:
        run_once()
        total_rows += rows
    return total_rows / elapsed


def test_kernel_backend_throughput():
    full = full_sweep_enabled()
    sizes = [(60, 120), (120, 240)] + ([(800, 1600)] if full else [])

    prior = None
    if bench_gate_enabled() and RESULT_PATH.exists():
        prior = json.loads(RESULT_PATH.read_text())

    sweep = []
    for servers, vms in sizes:
        compiled, population = _workload(servers, vms)
        evaluator = compiled.evaluator()

        # Baseline: the reference code fed one row at a time (pre-kernel
        # consumption pattern of the repair/delta paths).
        with use_kernel("reference"):
            per_row_ops = _rows_per_sec(
                lambda: [
                    evaluator.evaluate_population(population[i : i + 1])
                    for i in range(population.shape[0])
                ],
                population.shape[0],
            )
            baseline = evaluator.evaluate_population(population)

        point = {
            "servers": servers,
            "vms": vms,
            "attributes": int(compiled.infrastructure.h),
            "rows": int(population.shape[0]),
            "unplaced_fraction": UNPLACED_FRACTION,
            "per_row_reference_ops_per_sec": round(per_row_ops, 1),
            "backends": {},
        }
        for name in ("reference", "numpy"):
            with use_kernel(name):
                result = evaluator.evaluate_population(population)
                assert (
                    result.objectives.tobytes() == baseline.objectives.tobytes()
                ), f"{name} objectives diverge from reference at {servers}x{vms}"
                assert (
                    result.violations.tobytes() == baseline.violations.tobytes()
                ), f"{name} violations diverge from reference at {servers}x{vms}"
                ops = _rows_per_sec(
                    lambda: evaluator.evaluate_population(population),
                    population.shape[0],
                )
            point["backends"][name] = {
                "batch_ops_per_sec": round(ops, 1),
                "speedup_vs_per_row": round(ops / per_row_ops, 2),
            }
        sweep.append(point)

    largest = sweep[-1]
    numpy_speedup = largest["backends"]["numpy"]["speedup_vs_per_row"]

    regression_gate = {"enforced": prior is not None}
    if prior is not None:
        drops = []
        for point in sweep:
            match = next(
                (
                    p
                    for p in prior.get("sweep", [])
                    if p["servers"] == point["servers"]
                    and p["vms"] == point["vms"]
                ),
                None,
            )
            if match is None:
                continue
            before = match["backends"]["numpy"]["batch_ops_per_sec"]
            now = point["backends"]["numpy"]["batch_ops_per_sec"]
            if now < before * (1.0 - REGRESSION_TOLERANCE):
                drops.append(
                    f"{point['servers']}x{point['vms']}: numpy "
                    f"{now:.0f} ops/s < {1 - REGRESSION_TOLERANCE:.0%} "
                    f"of committed {before:.0f}"
                )
        regression_gate["tolerance"] = REGRESSION_TOLERANCE
        regression_gate["drops"] = drops
    else:
        regression_gate["reason"] = (
            "REPRO_BENCH_GATE unset or no committed BENCH_kernels.json"
        )

    RESULT_PATH.write_text(
        json.dumps(
            {
                "pop": POP,
                "batch_vs_per_row_floor": BATCH_VS_PER_ROW_FLOOR,
                "regression_gate": regression_gate,
                "sweep": sweep,
                "full_size": full,
                "environment": bench_environment(),
            },
            indent=2,
        )
        + "\n"
    )

    assert numpy_speedup >= BATCH_VS_PER_ROW_FLOOR, (
        f"numpy batch only {numpy_speedup:.1f}x over per-row at "
        f"{largest['servers']}x{largest['vms']} "
        f"(floor {BATCH_VS_PER_ROW_FLOOR}x)"
    )
    if prior is not None:
        assert not regression_gate["drops"], "; ".join(regression_gate["drops"])


if __name__ == "__main__":
    test_kernel_backend_throughput()
