"""Worker-scaling curve of the parallel repair fan-out (the engine bench).

Measures wall-clock for repairing one batch of infeasible genomes —
the dominant per-generation cost of the hybrid at scale — serially and
through :class:`~repro.engine.parallel.ParallelEngine` at increasing
worker counts, asserting byte-identity against the serial result at
every point before reporting any number (a speedup with different
bytes would be worthless).

Results land in ``BENCH_parallel_repair.json`` at the repo root.  The
default size is smoke-scale (CI runs it on every push and fails on any
byte divergence); ``REPRO_BENCH_FULL=1`` runs the paper's largest
800 servers x 1600 VMs point over workers 1/2/4/8.  The >= 2.5x floor
at 4 workers is enforced only on the full size *and* when the host
actually has >= 4 CPUs — ``cpu_count`` is recorded in the JSON so a
1-core container's honest ~1x curve is legible as such, not as a
regression.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import bench_environment, full_sweep_enabled, scenario_for
from repro.engine import CompiledProblem, ParallelEngine
from repro.model.request import Request
from repro.tabu.repair import TabuRepair

#: Enforced at the full size on hosts with enough cores (see module doc).
SPEEDUP_FLOOR_AT_4 = 2.5

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_parallel_repair.json"


def _repair_once(compiled, population, engine, seed=0):
    """One timed population repair; fresh repairer = fresh batch counter."""
    repairer = TabuRepair(compiled, seed=seed, engine=engine)
    t0 = time.perf_counter()
    repaired = repairer(population)
    return repaired, time.perf_counter() - t0


def test_parallel_repair_scaling():
    full = full_sweep_enabled()
    servers, vms = (800, 1600) if full else (60, 120)
    rows = 64 if full else 16
    worker_counts = (1, 2, 4, 8) if full else (1, 2)
    cpu_count = os.cpu_count() or 1

    scenario = scenario_for(servers, vms, seed=3, tightness=0.9)
    merged, _ = Request.concatenate(list(scenario.requests))
    compiled = CompiledProblem.compile(scenario.infrastructure, merged)
    rng = np.random.default_rng(11)
    population = rng.integers(
        0, scenario.infrastructure.m, size=(rows, merged.n), dtype=np.int64
    )

    serial, serial_elapsed = _repair_once(compiled, population, engine=None)

    curve = []
    mismatches = 0
    for n_workers in worker_counts:
        with ParallelEngine(n_workers) as engine:
            repaired, elapsed = _repair_once(compiled, population, engine)
            degraded = not engine.available
        identical = serial.tobytes() == repaired.tobytes()
        if not identical:
            mismatches += 1
        curve.append(
            {
                "workers": n_workers,
                "seconds": round(elapsed, 4),
                "speedup": round(serial_elapsed / elapsed, 2),
                "byte_identical": identical,
                "fell_back_to_serial": degraded,
            }
        )

    gate_enforced = full and cpu_count >= 4
    record = {
        "servers": servers,
        "vms": vms,
        "infeasible_rows": rows,
        "cpu_count": cpu_count,
        "serial_seconds": round(serial_elapsed, 4),
        "worker_curve": curve,
        "speedup_gate": {
            "enforced": gate_enforced,
            "floor_at_4_workers": SPEEDUP_FLOOR_AT_4,
            "reason": None
            if gate_enforced
            else (
                f"cpu_count={cpu_count} < 4"
                if cpu_count < 4
                else "smoke size (REPRO_BENCH_FULL unset)"
            ),
        },
        "full_size": full,
        "environment": bench_environment(),
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    assert mismatches == 0, f"{mismatches} worker counts diverged from serial bytes"

    if gate_enforced:
        at_4 = next(p for p in curve if p["workers"] == 4)
        assert at_4["speedup"] >= SPEEDUP_FLOOR_AT_4, (
            f"repair fan-out only {at_4['speedup']:.1f}x at 4 workers "
            f"(floor {SPEEDUP_FLOOR_AT_4}x, cpu_count={cpu_count})"
        )
