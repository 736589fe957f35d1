"""Incremental vs full-tile move-scoring throughput (the engine bench).

Measures how many single-VM relocation candidates per second the tabu
layer can score

* the old way — tile the current genome into a batch, flip one gene per
  row, and run :meth:`PopulationEvaluator.evaluate_population`;
* the delta way — :meth:`IncrementalEvaluator.score_move`.

Both paths score the *same* moves from the *same* start, and the run
asserts objective/violation parity move-by-move before reporting any
number — a throughput win with wrong scores would be worthless.

Results land in ``BENCH_incremental_eval.json`` at the repo root.
Default size is smoke-scale (CI runs it on every push and fails on
parity mismatch); ``REPRO_BENCH_FULL=1`` runs the paper-scale 800
servers x 1600 VMs point, where the >= 5x speedup floor is enforced.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import bench_environment, full_sweep_enabled, scenario_for
from repro.engine import CompiledProblem, IncrementalEvaluator
from repro.model.request import Request

#: Candidate moves scored per batch — the old search's neighbourhood.
BATCH = 64
#: Enforced at the paper-scale size (full-tile cost grows with n*m*h,
#: delta cost does not; small smoke sizes understate the gap).
SPEEDUP_FLOOR = 5.0

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_incremental_eval.json"


def _sample_moves(rng, current, m, count):
    moves = []
    while len(moves) < count:
        vm = int(rng.integers(0, current.shape[0]))
        srv = int(rng.integers(0, m))
        if srv != current[vm]:
            moves.append((vm, srv))
    return moves


def _full_tile_scores(evaluator, current, moves):
    """Score ``moves`` the pre-engine way: one tiled batch per BATCH."""
    violations = np.empty(len(moves), dtype=np.int64)
    objectives = np.empty((len(moves), 3))
    for start in range(0, len(moves), BATCH):
        chunk = moves[start : start + BATCH]
        batch = np.tile(current, (len(chunk), 1))
        for row, (vm, srv) in enumerate(chunk):
            batch[row, vm] = srv
        result = evaluator.evaluate_population(batch)
        violations[start : start + len(chunk)] = result.violations
        objectives[start : start + len(chunk)] = result.objectives
    return violations, objectives


def test_incremental_eval_throughput():
    full = full_sweep_enabled()
    servers, vms = (800, 1600) if full else (120, 240)
    moves_count = 256 if full else 512

    scenario = scenario_for(servers, vms, seed=3)
    merged, _ = Request.concatenate(list(scenario.requests))
    compiled = CompiledProblem.compile(scenario.infrastructure, merged)
    evaluator = compiled.evaluator()

    rng = np.random.default_rng(7)
    current = rng.integers(0, scenario.infrastructure.m, size=merged.n)
    moves = _sample_moves(rng, current, scenario.infrastructure.m, moves_count)

    # Full-tile path.
    t0 = time.perf_counter()
    full_viol, full_obj = _full_tile_scores(evaluator, current, moves)
    full_elapsed = time.perf_counter() - t0

    # Delta path.
    state = IncrementalEvaluator(compiled, evaluator, current)
    t0 = time.perf_counter()
    delta_scores = [state.score_move(vm, srv) for vm, srv in moves]
    delta_elapsed = time.perf_counter() - t0
    state.flush_telemetry()

    # Parity, move by move: violations exact, objectives to float noise.
    mismatches = 0
    for i, score in enumerate(delta_scores):
        if score.violations != full_viol[i]:
            mismatches += 1
        elif not np.allclose(score.objectives, full_obj[i], rtol=1e-9, atol=1e-9):
            mismatches += 1
    assert mismatches == 0, f"{mismatches}/{len(moves)} moves disagree"

    full_rate = len(moves) / full_elapsed
    delta_rate = len(moves) / delta_elapsed
    speedup = delta_rate / full_rate
    record = {
        "servers": servers,
        "vms": vms,
        "attributes": int(scenario.infrastructure.h),
        "moves_scored": len(moves),
        "full_tile_moves_per_sec": round(full_rate, 1),
        "delta_moves_per_sec": round(delta_rate, 1),
        "speedup": round(speedup, 2),
        "parity_checked": len(moves),
        "parity_mismatches": mismatches,
        "full_size": full,
        "environment": bench_environment(),
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    if full:
        assert speedup >= SPEEDUP_FLOOR, (
            f"delta scoring only {speedup:.1f}x faster than full-tile "
            f"(floor {SPEEDUP_FLOOR}x)"
        )
