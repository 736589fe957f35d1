"""One workload of the end-to-end benchmark, in a fresh interpreter.

``run.py`` spawns this file once per workload run, and once per extra
set-up sample, so set-up time and peak memory belong to that workload
alone.  The last line of standard output is one JSON object holding the
workload's metrics (named as in ``perfbench/manifest.json``), the failed
output checks and, in a traced run, the per-layer values and where the
span forest was written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import service_driver  # noqa: E402
import tracing  # noqa: E402

#: Scratch space inside the checkout: span forests, checkpoints, server logs.
WORK_DIR = Path(".perfbench")

#: Input sizes.  "full" is the benchmark; "toy" only feeds the self-test.
#: The churn workload widens failure_storm to 32 servers and 100
#: windows, 4 arrivals and a mean tenancy of 8 per window, and a
#: whole-estate reoptimize every 25 windows: occupancy settles near 32
#: tenants after about 25 windows, so most windows run at steady state.
SCALES = {
    "full": {
        "alloc_tabu": {"servers": 200, "vms": 400, "instances": 3,
                       "population": 20, "evaluations": 600},
        "alloc_nsga3": {"servers": 800, "vms": 1600, "instances": 6,
                        "population": 100, "evaluations": 10_000},
        "scenario_churn": {"servers": 32, "horizon": 100.0, "arrival_rate": 4.0,
                           "mean_lifetime": 8.0, "reoptimize_every": 25,
                           "population": 20, "evaluations": 600},
        "service_admit": {"servers": 64, "arrivals": 1000, "rates": (50.0, 100.0, 200.0)},
    },
    "toy": {
        "alloc_tabu": {"servers": 20, "vms": 40, "instances": 1,
                       "population": 8, "evaluations": 48},
        "alloc_nsga3": {"servers": 20, "vms": 40, "instances": 2,
                        "population": 8, "evaluations": 48},
        "scenario_churn": {"servers": 8, "horizon": 12.0, "arrival_rate": 1.5,
                           "mean_lifetime": 3.0, "reoptimize_every": 5,
                           "population": 8, "evaluations": 48},
        "service_admit": {"servers": 8, "arrivals": 60, "rates": (40.0, 80.0)},
    },
}

#: The limit a rung's POST tail latency must meet to count towards
#: ``max_ok_rate``; it falls between the 100/s and 200/s rungs.
LATENCY_LIMIT_MS = 250.0
#: A rung whose generator lag grows by more than this between its first
#: and last quarter measured the client, not the service.
LAG_GROWTH_LIMIT_MS = 20.0
#: Mean tenancy of the service trace, in mean arrival gaps: the
#: default mix of ``repro.service.LoadGenerator`` (mean lifetime 8 at
#: 10 arrivals per unit).
SERVICE_MEAN_LIFETIME = 80.0


def now() -> float:
    return time.perf_counter()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    return max(50, min(99, int(100 - 1000 / count)))


class Context:
    """Arguments, set-up samples, the measuring clock and failed checks."""

    def __init__(self, args) -> None:
        self.args = args
        self.seed = args.seed
        self.size = SCALES[args.scale][args.workload]
        self.setup_samples: list[float] = []
        self.measure_start = 0.0
        self.failures: list[str] = []

    def setup_done(self) -> None:
        """Mark the first timed call; set-up counts from the spawn."""
        self.setup_samples.append(now() - self.args.spawned_at)
        self.measure_start = now()

    def fits(self, durations) -> bool:
        """Whether one more operation of median length fits the budget."""
        elapsed = now() - self.measure_start
        return elapsed + statistics.median(durations) <= self.args.seconds


# ----------------------------------------------------------------------
# Output checks (the self-test feeds each one a corrupted result)
# ----------------------------------------------------------------------
def check_allocation(instance, outcome, require_feasible: bool) -> list[str]:
    """Invariant sweep over one BatchOutcome; the tabu hybrid must also
    return zero constraint violations (the paper's Fig. 10 claim)."""
    from repro.verify import CheckContext, run_invariants

    report = run_invariants(
        CheckContext(
            infrastructure=instance.infrastructure,
            requests=instance.requests,
            outcome=outcome,
        )
    )
    problems = [f"invariant {v.invariant}: {v.message}" for v in report.violations]
    if require_feasible and outcome.violations != 0:
        problems.append(f"{outcome.violations} constraint violations, expected 0")
    return problems


def check_windows(infrastructure, calls, violations: int) -> list[str]:
    """Invariant sweep over every allocate() of one scenario replay,
    against the committed usage each was given; the replay must also
    report zero constraint violations (the paper's Fig. 10 claim)."""
    from repro.verify import CheckContext, run_invariants

    problems = []
    if violations != 0:
        problems.append(f"{violations} constraint violations, expected 0")
    for index, (requests, base_usage, outcome) in enumerate(calls):
        report = run_invariants(
            CheckContext(
                infrastructure=infrastructure,
                requests=requests,
                outcome=outcome,
                base_usage=base_usage,
            )
        )
        problems += [
            f"allocate() {index}: invariant {v.invariant}: {v.message}"
            for v in report.violations
        ]
    return problems


def record_allocations(allocator, calls: list) -> None:
    """Append (requests, base_usage, outcome) of each allocate() call."""
    allocate = allocator.allocate

    def recording(infrastructure, requests, **kwargs):
        outcome = allocate(infrastructure, requests, **kwargs)
        calls.append((requests, kwargs.get("base_usage"), outcome))
        return outcome

    allocator.allocate = recording


def check_ledgers(fingerprints) -> list[str]:
    """Every replay of one seed must end on the same ledger."""
    if len(set(fingerprints)) != 1:
        return [f"ledger fingerprints differ across replays: {sorted(set(fingerprints))}"]
    return []


def check_requests(records) -> list[str]:
    """No request of the reference rung may fail (5xx, 429, 404, transport)."""
    statuses: dict[str, int] = {}
    for record in records:
        if record.failed:
            label = f"{record.method} {record.status}"
            statuses[label] = statuses.get(label, 0) + 1
    return [f"failed requests: {statuses}"] if statuses else []


def check_service_checkpoint(checkpoint_dir: str) -> list[str]:
    """The flushed checkpoint must replay byte-identically in batch."""
    from repro.verify import check_service_conformance

    report = check_service_conformance(checkpoint_dir)
    return [] if report.ok else [f"service conformance: {report.format()}"]


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class Traced:
    """Tracer, registry and repair tally of one traced run.

    They are installed only inside a root span, so the untraced pass a
    traced run also makes (to measure tracing overhead) records nothing.
    """

    def __init__(self) -> None:
        from repro.telemetry import MetricsRegistry, Tracer

        self.tracer = Tracer(enabled=False)
        self.registry = MetricsRegistry()
        self.tally = tracing.RepairTally()

    @contextmanager
    def root(self, name: str):
        from repro.telemetry import get_bus, set_registry, set_tracer

        previous = set_tracer(self.tracer), set_registry(self.registry)
        bus = get_bus()
        bus.subscribe(self.tally)
        self.tracer.enabled = True
        try:
            with self.tracer.span(name):
                yield self.tracer
        finally:
            self.tracer.enabled = False
            bus.unsubscribe(self.tally)
            set_tracer(previous[0])
            set_registry(previous[1])


def _root(traced: Traced | None, name: str):
    return traced.root(name) if traced else nullcontext()


def _span(tracer, name: str):
    return tracer.span(name) if tracer else nullcontext()


# ----------------------------------------------------------------------
# Inputs (shared with the set-up-only samples)
# ----------------------------------------------------------------------
def alloc_instances(ctx: Context) -> list:
    """Generated instances at seeds s, s+1000, ... (the Fig. 8 generator)."""
    from repro import ScenarioGenerator, ScenarioSpec

    size = ctx.size
    spec = ScenarioSpec(
        servers=size["servers"],
        datacenters=4 if size["servers"] >= 100 else 2,
        vms=size["vms"],
        tightness=0.65,
    )
    return [
        ScenarioGenerator(spec, seed=ctx.seed + 1000 * index).generate()
        for index in range(size["instances"])
    ]


def churn_scenario(ctx: Context):
    """failure_storm widened to the churn workload's estate and horizon."""
    from repro.workloads.scenarios import compile_scenario, get_scenario

    size = ctx.size
    spec = dataclasses.replace(
        get_scenario("failure_storm"),
        servers=size["servers"],
        datacenters=4 if size["servers"] >= 16 else 2,
        horizon=size["horizon"],
        arrival_rate=size["arrival_rate"],
        mean_lifetime=size["mean_lifetime"],
        reoptimize_every=size["reoptimize_every"],
    )
    return compile_scenario(spec, seed=ctx.seed)


def ea_config(ctx: Context):
    """The workload's EA budget; the EA seed is fixed, inputs carry the seed."""
    from repro import NSGAConfig

    return NSGAConfig(
        population_size=ctx.size["population"],
        max_evaluations=ctx.size["evaluations"],
        seed=0,
    )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def alloc_workload(ctx: Context, traced: Traced | None) -> dict:
    """One allocate() per generated instance, repeated while time allows.

    A traced run then allocates the first instance twice more, untraced
    and traced, so tracing overhead compares two warm calls.
    """
    from repro import NSGA3Allocator, NSGA3TabuAllocator
    from repro.model.placement import UNPLACED

    tabu = ctx.args.workload == "alloc_tabu"
    allocator_class = NSGA3TabuAllocator if tabu else NSGA3Allocator
    config = ea_config(ctx)
    with _root(traced, "bench.setup"):
        instances = alloc_instances(ctx)
    ctx.setup_done()

    def allocate(instance):
        allocator = allocator_class(config)
        try:
            start = now()
            outcome = allocator.allocate(instance.infrastructure, instance.requests)
            return outcome, now() - start
        finally:
            allocator.close()

    outcomes, times, repeats = [], [], []
    for instance in instances:
        outcome, elapsed = allocate(instance)
        outcomes.append(outcome)
        times.append(elapsed)
        ctx.failures += check_allocation(instance, outcome, require_feasible=tabu)
    while not traced and ctx.fits(times):
        index = len(repeats) % len(instances)
        again, elapsed = allocate(instances[index])
        times.append(elapsed)
        repeats.append((index, again))
    untraced_s = traced_s = None
    if traced:
        again, untraced_s = allocate(instances[0])
        repeats.append((0, again))
        with traced.root("bench.run"):
            again, traced_s = allocate(instances[0])
        repeats.append((0, again))
    for index, again in repeats:
        if again.assignment.tolist() != outcomes[index].assignment.tolist():
            ctx.failures.append(f"repeated allocate() of instance {index} differs")

    requests = sum(outcome.n_requests for outcome in outcomes)
    rejected = sum(int((~outcome.accepted).sum()) for outcome in outcomes)
    cost = statistics.fmean(outcome.provider_cost for outcome in outcomes)
    placed = sum(int((outcome.assignment != UNPLACED).sum()) for outcome in outcomes)
    return {
        "attempted": len(times),
        "failed": 0,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "metrics": {
            "alloc_s": statistics.median(times),
            "rejection_rate": rejected / requests,
            "violations": sum(outcome.violations for outcome in outcomes),
            "provider_cost": cost,
            "failed_share": 0.0,
        },
        "e2e": {
            "op_ms": statistics.median(times) * 1e3,
            "accepted_share": 1.0 - rejected / requests,
            "cost_per_vm": cost * len(outcomes) / placed,
        },
        "samples": {"allocate": len(times), "instances": len(instances)},
    }


def churn_workload(ctx: Context, traced: Traced | None) -> dict:
    """Replays of the widened failure_storm scenario through nsga3_tabu.

    The first replay records every allocate() for the invariant sweep.
    A traced run replays twice more, untraced and traced, so tracing
    overhead compares two warm replays.
    """
    from repro import NSGA3TabuAllocator, TimeWindowScheduler
    from repro.model.placement import UNPLACED

    config = ea_config(ctx)
    with _root(traced, "bench.setup"):
        compiled = churn_scenario(ctx)
    ctx.setup_done()

    window_times: list[float] = []
    run_window = TimeWindowScheduler.run_window

    def timed_window(self):
        start = now()
        try:
            return run_window(self)
        finally:
            window_times.append(now() - start)

    def replay(calls=None):
        allocator = NSGA3TabuAllocator(config)
        if calls is not None:
            record_allocations(allocator, calls)
        try:
            start = now()
            result = compiled.run(allocator)
            return result, now() - start
        finally:
            allocator.close()

    calls: list = []
    results, walls = [], []
    untraced_s = traced_s = None
    TimeWindowScheduler.run_window = timed_window
    try:
        result, wall = replay(calls)
        results.append(result)
        walls.append(wall)
        if traced:
            result, untraced_s = replay()
            results.append(result)
            with traced.root("bench.run"):
                result, traced_s = replay()
            results.append(result)
        # At least two replays, so the ledger check has something to compare.
        while not traced and (len(results) < 2 or ctx.fits(walls)):
            result, wall = replay()
            results.append(result)
            walls.append(wall)
    finally:
        TimeWindowScheduler.run_window = run_window
    metrics = results[0].metrics
    ctx.failures += check_windows(compiled.infrastructure, calls, metrics.violations)
    ctx.failures += check_ledgers([result.ledger_fingerprint for result in results])

    placed = sum(
        int((report.outcome.assignment != UNPLACED).sum())
        for report in results[0].reports
        if report.outcome is not None
    )
    return {
        "attempted": len(results),
        "failed": 0,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "metrics": {
            "windows_per_s": metrics.windows / statistics.median(walls),
            "window_p90_s": percentile(window_times, 90),
            "rejection_rate": metrics.rejection_rate,
            "violations": metrics.violations,
            "provider_cost": metrics.provider_cost,
            "sla_violation_rate": metrics.sla_violation_rate,
            "migration_churn": metrics.migration_churn,
            "failed_share": 0.0,
        },
        "e2e": {
            "op_ms": statistics.median(walls) / metrics.windows * 1e3,
            "accepted_share": 1.0 - metrics.rejection_rate,
            "cost_per_vm": metrics.provider_cost / placed,
        },
        "samples": {"replays": len(results), "windows": len(window_times),
                    "allocate_calls_checked": len(calls)},
    }


def _rung_summary(records, rate: float) -> dict:
    posts = [record for record in records if record.method == "POST"]
    latency_ms = [(record.done - record.due) * 1e3 for record in posts]
    lags = [(record.woke - record.due) * 1e3 for record in records]
    quarter = max(1, len(lags) // 4)
    lag_growth = statistics.median(lags[-quarter:]) - statistics.median(lags[:quarter])
    failed = sum(record.failed for record in records)
    q = tail_percentile(len(posts))
    tail = percentile(latency_ms, q)
    return {
        "rate": rate,
        "posts": len(posts),
        "deletes": len(records) - len(posts),
        "failed": failed,
        "p50_ms": percentile(latency_ms, 50),
        "tail_q": q,
        "tail_ms": tail,
        "lag_mean_ms": statistics.fmean(lags),
        "lag_growth_ms": lag_growth,
        "accepted": sum(record.status == 200 for record in posts),
        "ok": failed == 0 and tail <= LATENCY_LIMIT_MS
        and lag_growth <= LAG_GROWTH_LIMIT_MS,
    }


def service_rung(ctx: Context, events, rate: float, reference: bool,
                 traced: Traced | None = None):
    """Boot a fresh server, replay the trace at ``rate``, SIGTERM it.

    A reference rung must finish without a failed request, and its
    flushed checkpoint must pass the service conformance check.
    """
    directory = tempfile.mkdtemp(prefix="service-", dir=WORK_DIR)
    checkpoint_dir = os.path.join(directory, "checkpoints")
    connections = min(os.cpu_count() or 1, 8)
    metrics = None
    try:
        with _root(traced, "bench.run") as tracer:
            with _span(tracer, "service.boot"):
                server = service_driver.boot(
                    ctx.seed, ctx.size["servers"], checkpoint_dir,
                    os.path.join(directory, "server.log"),
                )
            try:
                with _span(tracer, "service.replay"):
                    records = service_driver.replay(server.port, events, rate, connections)
                if tracer:
                    metrics = service_driver.fetch_metrics(server.port)["metrics"]
            finally:
                service_driver.stop(server)
        if server.returncode != 0:
            ctx.failures.append(f"server at {rate}/s exited {server.returncode}")
        if reference:
            ctx.failures += check_requests(records)
            ctx.failures += check_service_checkpoint(checkpoint_dir)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    ctx.setup_samples.append(server.boot_s)
    return _rung_summary(records, rate), records, metrics, server.peak_rss_mb


def service_workload(ctx: Context, traced: Traced | None) -> dict:
    """The arrival-rate ladder; its first rung is the reference rung.

    A traced run replays the reference rung twice, untraced and traced,
    and skips the other rungs.  The tracer wraps only the client's own
    spans there (the server runs in another process), so the tracing
    overhead it reports is the difference between two reference rungs.
    """
    from repro.objectives.usage_cost import UsageOperatingCost
    from repro.service import ServiceConfig
    from repro.workloads import ScenarioGenerator

    size = ctx.size
    events = service_driver.make_events(
        ctx.seed, size["servers"], size["arrivals"], SERVICE_MEAN_LIFETIME
    )
    reference_rate, *higher = size["rates"]
    reference, records, _, peak_rss = service_rung(ctx, events, reference_rate, True)
    rungs = [reference]
    result = {}
    if traced:
        summary, traced_records, metrics, _ = service_rung(
            ctx, events, reference_rate, True, traced
        )
        result["traced_s"] = summary["p50_ms"] / 1e3
        result["service_layers"] = _service_layers(metrics, traced_records)
    else:
        rungs += [service_rung(ctx, events, rate, False)[0] for rate in higher]

    infrastructure = ScenarioGenerator(
        ServiceConfig(servers=size["servers"], datacenters=4, seed=ctx.seed).scenario_spec(),
        seed=ctx.seed,
    ).generate().infrastructure
    placed = [g for record in records if record.placement for g in record.placement]
    cost = UsageOperatingCost(infrastructure).value(placed)
    ok_rates = [rung["rate"] for rung in rungs if rung["ok"]]
    posts = reference["posts"]
    result.update({
        "attempted": len(records),
        "failed": reference["failed"],
        "untraced_s": reference["p50_ms"] / 1e3,
        "peak_rss_mb": peak_rss,
        "rungs": rungs,
        "metrics": {
            "admit_p50_ms": reference["p50_ms"],
            "admit_tail_ms": reference["tail_ms"],
            "max_ok_rate": max(ok_rates, default=0.0),
            "failed_share": reference["failed"] / len(records),
        },
        "e2e": {
            "op_ms": reference["p50_ms"],
            "accepted_share": reference["accepted"] / posts,
            "cost_per_vm": cost / len(placed),
        },
        "samples": {"posts": posts, "tail_percentile": reference["tail_q"],
                    "rungs": len(rungs)},
    })
    return result


def _service_layers(metrics: dict, records) -> dict:
    """Per-layer values read from the server's GET /metrics and the client."""
    counters = metrics["counters"]
    histograms = metrics["histograms"]

    def total(name: str) -> float:
        return sum(
            value for key, value in counters.items()
            if key == name or key.startswith(name + "{")
        )

    decide = histograms.get("service.admission.latency_seconds{action=arrival}")
    decisions = sum(
        summary["count"] for key, summary in histograms.items()
        if key.startswith("service.admission.latency_seconds")
    )
    decide_ms = decide["mean"] * 1e3 if decide else 0.0
    posts = [record for record in records if record.method == "POST"]
    wire_ms = statistics.fmean((record.done - record.sent) * 1e3 for record in posts)
    windows = total("scheduler.windows")
    writes = total("runtime.checkpoint.writes")
    hits, misses = total("engine.cache.hits"), total("engine.cache.misses")
    return {
        "service.admission.decide_ms": decide_ms,
        "service.admission.batch_size": decisions / windows if windows else 0.0,
        "service.http_overhead_ms": wire_ms - decide_ms,
        "service.client_lag_ms": statistics.fmean(
            (record.woke - record.due) * 1e3 for record in records
        ),
        "runtime.checkpoint.writes": writes,
        "runtime.checkpoint.kb_per_write": (
            total("runtime.checkpoint.bytes") / writes / 1024 if writes else 0.0
        ),
        "engine.compile.calls": hits + misses,
        "engine.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "scheduler.displaced": total("scheduler.displaced"),
    }


WORKLOADS = {
    "alloc_tabu": alloc_workload,
    "alloc_nsga3": alloc_workload,
    "scenario_churn": churn_workload,
    "service_admit": service_workload,
}


# ----------------------------------------------------------------------
# Per-layer values of a traced run
# ----------------------------------------------------------------------
def layer_values(traced: Traced, import_s: float, result: dict) -> dict:
    """Every per-layer metric BENCHMARK.json lists; layers a workload
    never reaches read 0."""
    roots = traced.tracer.roots
    calls, rows = tracing.span_counts(roots)
    snapshot = traced.registry.snapshot()
    listed = json.loads(Path("BENCHMARK.json").read_text())["per_layer"]
    values = {metric["name"]: 0.0 for metric in listed}
    values["repro.import_s"] = import_s
    values.update(tracing.self_times(roots))
    evaluated = rows.get("objectives.evaluate_population", 0)
    batches = calls.get("tabu.repair_batch", 0)
    genomes = calls.get("tabu.repair_genome", 0)
    moves = snapshot.counter_total("tabu.repair.moves")
    hits = snapshot.counter_total("engine.cache.hits")
    misses = snapshot.counter_total("engine.cache.misses")
    tally = traced.tally
    values.update({
        "engine.compile.calls": calls.get("engine.problem_cache_get", 0),
        "engine.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "ea.generations": snapshot.counter_total("nsga.generations"),
        "objectives.rows": evaluated,
        "objectives.rows_per_s": (
            evaluated / values["objectives.evaluate_s"]
            if values["objectives.evaluate_s"] else 0.0
        ),
        "tabu.repair.batches": batches,
        "tabu.repair.rows": genomes,
        "tabu.repair.rows_per_batch": genomes / batches if batches else 0.0,
        "tabu.repair.moves_per_row": moves / genomes if genomes else 0.0,
        "tabu.repair.success_ratio": (
            tally.repaired / tally.attempts if tally.attempts else 0.0
        ),
        "scheduler.displaced": snapshot.counter_total("scheduler.displaced"),
        "trace.wall_s": import_s + sum(root.elapsed for root in roots),
        "trace.overhead_ratio": result["traced_s"] / result["untraced_s"] - 1.0,
    })
    values.update(result.get("service_layers", {}))
    unlisted = set(values).difference(metric["name"] for metric in listed)
    if unlisted:
        raise KeyError(f"per-layer values BENCHMARK.json does not list: {sorted(unlisted)}")
    return values


def environment() -> dict:
    """The BENCH artifacts' provenance block plus engine mode and kernel."""
    from repro.engine.kernels import active_kernel

    sys.path.append(os.getcwd())
    try:
        from benchmarks.conftest import bench_environment
    except ImportError as exc:  # provenance only; the run still counts
        block = {"cpu_count": os.cpu_count() or 1, "bench_environment": repr(exc)}
    else:
        block = bench_environment()
    block["engine_mode"] = "serial (n_workers=0)"
    block["kernel_resolved"] = active_kernel().name
    return block


def setup_only(ctx: Context) -> list[float]:
    """One more set-up sample: what the workload does before its first op."""
    if ctx.args.workload != "service_admit":
        (churn_scenario if ctx.args.workload == "scenario_churn" else alloc_instances)(ctx)
        ctx.setup_done()
    else:
        directory = tempfile.mkdtemp(prefix="service-", dir=WORK_DIR)
        try:
            server = service_driver.boot(
                ctx.seed, ctx.size["servers"], os.path.join(directory, "checkpoints"),
                os.path.join(directory, "server.log"),
            )
            service_driver.stop(server)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        ctx.setup_samples.append(server.boot_s)
    return ctx.setup_samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.perf_counter() of the spawn in the parent")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    started = now()
    sys.path.insert(0, os.path.abspath("src"))
    import repro  # noqa: F401  (the package import is part of set-up)

    import_s = now() - started
    ctx = Context(args)
    WORK_DIR.mkdir(exist_ok=True)
    if args.setup_only:
        print(json.dumps({"setup_samples": setup_only(ctx)}))
        return 0

    traced = None
    if args.trace:
        tracing.install()
        traced = Traced()
    result = WORKLOADS[args.workload](ctx, traced)
    result["setup_samples"] = ctx.setup_samples
    result["failures"] = ctx.failures
    result.setdefault(
        "peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    result["environment"] = environment()
    if traced:
        result["layers"] = layer_values(traced, import_s, result)
        trace_path = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(tracing.forest_to_json(traced.tracer.roots)))
        result["trace_file"] = str(trace_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
