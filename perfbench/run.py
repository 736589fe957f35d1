"""End-to-end benchmark of the repro allocation stack.

Run from the root of a checkout (the directory holding ``src/repro``)::

    python3 perfbench/run.py --workload scenario_churn --seed 1 --seconds 45 --trace 0

Each run spawns the workload in a fresh interpreter (``work.py``) plus
extra set-up-only interpreters, so set-up time is a median of at least
three samples and peak memory belongs to that workload alone.  The report
prints every end-to-end metric of the workload with its unit, the
environment block and the output checks; the last line is one JSON
object with the metrics ``BENCHMARK.json`` lists: its ``end_to_end``
metrics, or with ``--trace 1`` its ``per_layer`` metrics.  The exit
code is non-zero when an output check fails.

Workloads, seeds and the layer each per-layer metric belongs to are
described in ``perfbench/manifest.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Set-up samples per run: the workload's own plus set-up-only spawns.
SETUP_SAMPLES = 3
#: The whole run, set-up samples included, ends within this many seconds.
RUN_DEADLINE_S = 170.0


class WorkloadFailed(RuntimeError):
    """A workload interpreter crashed or overran the deadline."""


def spawn(arguments: list[str], deadline: float) -> dict:
    """Run ``work.py`` in a fresh interpreter; returns its JSON result."""
    spawned = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "work.py"), *arguments, "--spawned-at", repr(spawned)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # one process group: the workload and its servers
    )
    try:
        out, err = process.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise WorkloadFailed(f"{arguments[0]} overran the {RUN_DEADLINE_S:.0f} s deadline")
    if process.returncode != 0 or not out.strip():
        raise WorkloadFailed(
            f"{arguments[0]} exited {process.returncode}:\n{err[-3000:]}"
        )
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(result: dict, setup: list[float]) -> dict:
    """The BENCHMARK.json end-to-end values of one run."""
    return {
        "setup_s": statistics.median(setup),
        **result["e2e"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def self_time_identity(layers: dict) -> tuple[float, float]:
    """(sum of self times + remainder, traced wall) of a traced run."""
    import tracing

    buckets = {"repro.import_s", tracing.REMAINDER, *tracing.BUCKET_OF.values()}
    return sum(layers[name] for name in buckets), layers["trace.wall_s"]


def report(args, manifest: dict, result: dict, setup: list[float]) -> None:
    """The human-readable part: every reported metric with unit and samples."""
    workload = manifest["workloads"][args.workload]
    units = {name: unit for name, (unit, *_) in manifest["reported_metrics"].items()}
    print(f"== {args.workload}  seed {args.seed}  ({workload['runs']})")
    for name, value in result["metrics"].items():
        print(f"  {name:<24} {value:>14.6g}  {units[name]}")
    print(f"  {'setup_s':<24} {statistics.median(setup):>14.6g}  s"
          f"  (median of {len(setup)}: {', '.join(f'{s:.3f}' for s in setup)})")
    print(f"  {'peak_rss_mb':<24} {result['peak_rss_mb']:>14.6g}  MB")
    print(f"  samples: {json.dumps(result['samples'])}")
    for rung in result.get("rungs", []):
        print(
            f"  rung {rung['rate']:>6.0f}/s  posts {rung['posts']}  deletes {rung['deletes']}"
            f"  p50 {rung['p50_ms']:.2f} ms  p{rung['tail_q']:.0f} {rung['tail_ms']:.2f} ms"
            f"  failed {rung['failed']}  lag {rung['lag_mean_ms']:.2f} ms"
            f" (growth {rung['lag_growth_ms']:+.2f})  ok={rung['ok']}"
        )
    print(f"  environment: {json.dumps(result['environment'], sort_keys=True)}")
    if "layers" in result:
        layers = result["layers"]
        total, wall = self_time_identity(layers)
        print(f"  traced wall {wall:.4f} s = self times + remainder {total:.4f} s;"
              f" tracing overhead {layers['trace.overhead_ratio']:+.2%};"
              f" span forest in {result['trace_file']}")
    for failure in result["failures"]:
        print(f"  CHECK FAILED: {failure}")
    if not result["failures"]:
        print("  output checks: ok")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy sizes exist for the self-test only")
    args = parser.parse_args(argv)

    if not (Path("src") / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a repro checkout "
              "(src/repro/__init__.py not found)", file=sys.stderr)
        return 2
    manifest = json.loads((HERE / "manifest.json").read_text())
    if args.workload not in manifest["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"pick from {', '.join(manifest['workloads'])}")
    benchmark = json.loads(Path("BENCHMARK.json").read_text())

    deadline = time.perf_counter() + RUN_DEADLINE_S
    arguments = [args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--scale", args.scale]
    try:
        result = spawn(arguments, deadline)
        setup = list(result["setup_samples"])
        while not args.trace and len(setup) < SETUP_SAMPLES:
            setup += spawn([*arguments, "--setup-only"], deadline)["setup_samples"]
    except WorkloadFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failures = result["failures"]
    if args.trace:
        values, listed = result["layers"], benchmark["per_layer"]
        total, wall = self_time_identity(values)
        if abs(total - wall) > 1e-6 * max(wall, 1.0):
            failures.append(f"self times {total} do not add up to traced wall {wall}")
    else:
        values, listed = end_to_end(result, setup), benchmark["end_to_end"]
    report(args, manifest, result, setup)
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in listed
        },
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
