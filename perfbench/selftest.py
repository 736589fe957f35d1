"""Self-test of the benchmark at toy sizes (about a minute).

    python3 perfbench/selftest.py

From the root of a checkout it checks that:

* every workload, untraced and traced, prints exactly the metrics
  BENCHMARK.json names, with their units, and the report prints every
  end-to-end metric the manifest gives the workload, with its unit;
* the traced run's self times plus remainder add up to its wall time,
  and ``tabu.repair.batches`` reads 0 on ``alloc_nsga3``;
* each output check catches a corrupted result: an over-capacity
  assignment, an over-capacity scenario window, a perturbed ledger and
  an injected 5xx;
* a failed check makes ``run.py`` exit non-zero, and so does a directory
  holding only BENCHMARK.json and ``perfbench/``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import service_driver  # noqa: E402
import work  # noqa: E402

PROBLEMS: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        PROBLEMS.append(message)
        print(f"FAIL: {message}")


def run_benchmark(workload: str, trace: int, cwd: str | None = None):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--scale", "toy"],
        capture_output=True, text=True, timeout=180, cwd=cwd,
    )
    return completed


def check_printed_metrics(benchmark: dict, manifest: dict) -> None:
    for workload in manifest["workloads"]:
        for trace, listed in ((0, benchmark["end_to_end"]), (1, benchmark["per_layer"])):
            completed = run_benchmark(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(completed.returncode == 0,
                   f"{label} exited {completed.returncode}: {completed.stderr[-800:]}")
            if completed.returncode != 0:
                continue
            lines = completed.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys {sorted(result)}")
            expect(result["correct"] and result["attempted"] >= 1,
                   f"{label}: correct={result['correct']} attempted={result['attempted']}")
            expected = {metric["name"]: metric["unit"] for metric in listed}
            printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
            expect(printed == expected, f"{label}: printed {printed}, expected {expected}")
            for name, entry in result["metrics"].items():
                expect(isinstance(entry["value"], (int, float)),
                       f"{label}: {name} value {entry['value']!r}")
            if trace:
                values = {name: entry["value"] for name, entry in result["metrics"].items()}
                total, wall = run.self_time_identity(values)
                expect(abs(total - wall) <= 1e-6 * max(wall, 1.0),
                       f"{label}: self times {total} vs wall {wall}")
                if workload == "alloc_nsga3":
                    expect(values["tabu.repair.batches"] == 0,
                           "alloc_nsga3 ran tabu repair batches")
                continue
            report = "\n".join(lines[:-1])
            for name, (unit, *workloads) in manifest["reported_metrics"].items():
                if workload in workloads:
                    expect(any(line.split()[:1] == [name] and line.rstrip().endswith(unit)
                               for line in lines[:-1]),
                           f"{label}: report lacks {name} [{unit}]:\n{report}")
            for name in ("setup_s", "peak_rss_mb"):
                expect(f"  {name} " in report, f"{label}: report lacks {name}")


def check_corruptions() -> None:
    sys.path.insert(0, os.path.abspath("src"))
    from repro import NSGA3TabuAllocator, NSGAConfig, ScenarioGenerator, ScenarioSpec
    from repro.workloads.scenarios import compile_scenario, get_scenario

    # Over-capacity assignment: every VM on server 0, violations still 0.
    instance = ScenarioGenerator(
        ScenarioSpec(servers=12, datacenters=2, vms=24, tightness=0.65), seed=3
    ).generate()
    allocator = NSGA3TabuAllocator(NSGAConfig(population_size=8, max_evaluations=48, seed=0))
    outcome = allocator.allocate(instance.infrastructure, instance.requests)
    expect(work.check_allocation(instance, outcome, require_feasible=True) == [],
           "check_allocation rejects a genuine tabu outcome")
    corrupted = dataclasses.replace(outcome, assignment=outcome.assignment * 0)
    expect(work.check_allocation(instance, corrupted, require_feasible=True) != [],
           "check_allocation missed an over-capacity assignment")
    lying = dataclasses.replace(outcome, violations=3)
    expect(work.check_allocation(instance, lying, require_feasible=True) != [],
           "check_allocation missed a tabu outcome with violations")

    # Over-capacity window: one allocate() of a replay re-checked as if
    # the estate were already full; and a replay reporting violations.
    spec = dataclasses.replace(get_scenario("failure_storm"), servers=8, horizon=6.0)
    config = NSGAConfig(population_size=8, max_evaluations=48, seed=0)
    compiled = compile_scenario(spec, seed=3)
    allocator, calls = NSGA3TabuAllocator(config), []
    work.record_allocations(allocator, calls)
    replayed = compiled.run(allocator)
    estate = compiled.infrastructure
    expect(calls and work.check_windows(estate, calls, replayed.metrics.violations) == [],
           "check_windows rejects a genuine replay")
    index = next(i for i, call in enumerate(calls) if call[2].accepted.any())
    full = [*calls]
    full[index] = (calls[index][0], estate.effective_capacity.copy(), calls[index][2])
    expect(work.check_windows(estate, full, 0) != [],
           "check_windows missed an over-capacity window")
    expect(work.check_windows(estate, calls, 2) != [],
           "check_windows missed a replay with violations")

    # Perturbed ledger: one replay of a different stream in the set.
    same = [compile_scenario(spec, seed=3).run(NSGA3TabuAllocator(config)).ledger_fingerprint
            for _ in range(2)]
    other = compile_scenario(dataclasses.replace(spec, arrival_rate=2.5), seed=3).run(
        NSGA3TabuAllocator(config)).ledger_fingerprint
    expect(work.check_ledgers(same) == [], "check_ledgers rejects two equal replays")
    expect(work.check_ledgers([*same, other]) != [], "check_ledgers missed a perturbed ledger")

    # Injected 5xx among otherwise clean requests.
    records = [service_driver.Record("POST", f"k{i}", 0.0, status=200) for i in range(5)]
    records.append(service_driver.Record("DELETE", "k0", 0.0, status=409))
    expect(work.check_requests(records) == [], "check_requests rejects clean requests")
    records.append(service_driver.Record("POST", "k9", 0.0, status=500))
    expect(work.check_requests(records) != [], "check_requests missed an injected 5xx")
    records[-1] = service_driver.Record("DELETE", "k9", 0.0, status=404)
    expect(work.check_requests(records) != [], "check_requests missed a 404 departure")


def check_exit_codes() -> None:
    # A failed output check: run.main must exit non-zero.
    real_spawn = run.spawn

    def failing_spawn(arguments, deadline):
        result = real_spawn(arguments, deadline)
        if "--setup-only" not in arguments:
            result["failures"].append("injected failure")
        return result

    run.spawn = failing_spawn
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = run.main(["--workload", "alloc_tabu", "--seed", "3", "--seconds", "1",
                             "--scale", "toy"])
    finally:
        run.spawn = real_spawn
    expect(code != 0, "run.py exited 0 although an output check failed")

    # A directory holding only BENCHMARK.json and perfbench/.
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = run_benchmark("alloc_tabu", 0, cwd=bare)
        expect(completed.returncode != 0, "run.py exited 0 without a program to run")
        expect('"correct"' not in completed.stdout, "run.py printed a result without a program")


def main() -> int:
    benchmark = json.loads(Path("BENCHMARK.json").read_text())
    manifest = json.loads((HERE / "manifest.json").read_text())
    expect(set(manifest["workloads"]) - set(manifest["dropped_workloads"])
           == {w["name"] for w in benchmark["workloads"]},
           "manifest and BENCHMARK.json disagree on workloads")
    expect(set(manifest["end_to_end"]) == {m["name"] for m in benchmark["end_to_end"]},
           "manifest and BENCHMARK.json disagree on end-to-end metrics")
    expect(set(manifest["per_layer"]) == {m["name"] for m in benchmark["per_layer"]},
           "manifest and BENCHMARK.json disagree on per-layer metrics")
    check_corruptions()
    check_exit_codes()
    check_printed_metrics(benchmark, manifest)
    print(f"selftest: {len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
