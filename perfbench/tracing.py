"""Per-layer spans for the traced run, recorded from the benchmark's side.

The program is not edited: :func:`install` wraps the public entry points
listed in :data:`ENTRY_POINTS` so that each call opens a span on the
program's own :class:`repro.telemetry.Tracer`.  Spans the program opens
itself (``nsga3.generation``, ``ea.repair``, ``scheduler.allocate``...)
land in the same forest.

Self time is charged by bucket.  An entry-point span charges its own
bucket; any other span charges the bucket of its nearest entry-point
ancestor, so spans a later change adds inside a layer stay in that
layer.  Time in a root span outside every child is the remainder.  The
buckets of a forest therefore add up to the wall time of its roots.
"""

from __future__ import annotations

import functools
import importlib
import sys

#: (bucket, span name, "module:attribute path") of every timed entry point.
ENTRY_POINTS = (
    ("workloads.generate_s", "workloads.generate",
     "repro.workloads.generator:ScenarioGenerator.generate"),
    ("workloads.generate_s", "workloads.compile_scenario",
     "repro.workloads.scenarios:compile_scenario"),
    ("engine.compile_s", "engine.problem_cache_get",
     "repro.engine.cache:ProblemCache.get"),
    ("ea.loop_self_s", "ea.engine_run_step",
     "repro.ea.nsga_base:EngineRun.step"),
    ("ea.variation_s", "ea.sbx_crossover",
     "repro.ea.operators.sbx:sbx_crossover"),
    ("ea.variation_s", "ea.polynomial_mutation",
     "repro.ea.operators.polynomial:polynomial_mutation"),
    ("ea.selection_s", "ea.fast_non_dominated_sort",
     "repro.ea.sorting:fast_non_dominated_sort"),
    ("ea.selection_s", "ea.niching_select",
     "repro.ea.reference_points:ReferencePointNiching.select"),
    ("objectives.evaluate_s", "objectives.evaluate_population",
     "repro.objectives.evaluator:PopulationEvaluator.evaluate_population"),
    ("tabu.repair_s", "tabu.repair_batch", "repro.tabu.repair:TabuRepair.__call__"),
    ("tabu.repair_s", "tabu.repair_genome",
     "repro.tabu.repair:TabuRepair.repair_genome"),
    ("allocator.allocate_self_s", "allocator.allocate",
     "repro.hybrid.nsga_allocators:NSGA3Allocator.allocate"),
    ("allocator.allocate_self_s", "allocator.allocate",
     "repro.hybrid.nsga_allocators:NSGA3TabuAllocator.allocate"),
    ("allocator.finish_s", "allocator.finish", "repro.allocator:AnytimeRun.finish"),
    ("scheduler.window_self_s", "scheduler.run_window",
     "repro.scheduler.window:TimeWindowScheduler.run_window"),
    ("scheduler.reoptimize_s", "scheduler.reoptimize",
     "repro.scheduler.window:TimeWindowScheduler.reoptimize"),
)

#: Span names whose first positional argument is a population matrix;
#: the span records its row count.
_ROW_ARGUMENTS = {"objectives.evaluate_population", "tabu.repair_batch"}

#: Spans the service workload's client opens around its own steps.
CLIENT_SPANS = {"service.boot": "service.boot_s", "service.replay": "service.replay_s"}

REMAINDER = "trace.remainder_s"

BUCKET_OF = {name: bucket for bucket, name, _ in ENTRY_POINTS} | CLIENT_SPANS


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def _wrap(function, span_name: str, get_tracer):
    rows = span_name in _ROW_ARGUMENTS
    is_method = "." in function.__qualname__

    @functools.wraps(function)
    def timed(*args, **kwargs):
        tracer = get_tracer()
        if not tracer.enabled:
            return function(*args, **kwargs)
        attributes = {}
        if rows:
            population = args[1] if is_method else args[0]
            attributes["rows"] = len(population)
        with tracer.span(span_name, **attributes):
            return function(*args, **kwargs)

    timed.__wrapped_by_perfbench__ = True
    return timed


def install() -> None:
    """Wrap every entry point; calls run untimed while tracing is off.

    A function imported by name into other modules is replaced there
    too, so call sites that bound it at import time are timed as well.
    """
    from repro.telemetry import get_tracer

    for _, span_name, target in ENTRY_POINTS:
        owner, attribute = _resolve(target)
        original = getattr(owner, attribute)
        if getattr(original, "__wrapped_by_perfbench__", False):
            continue
        timed = _wrap(original, span_name, get_tracer)
        if isinstance(owner, type):
            setattr(owner, attribute, timed)
            continue
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "repro" and getattr(module, attribute, None) is original:
                setattr(module, attribute, timed)


def self_times(roots) -> dict[str, float]:
    """Self time per bucket over a forest; roots charge the remainder."""
    totals: dict[str, float] = {}

    def charge(record, bucket: str) -> None:
        bucket = BUCKET_OF.get(record.name, bucket)
        totals[bucket] = totals.get(bucket, 0.0) + record.self_time
        for child in record.children:
            charge(child, bucket)

    for root in roots:
        charge(root, REMAINDER)
    return totals


def span_counts(roots) -> tuple[dict[str, int], dict[str, int]]:
    """(calls, summed ``rows`` attribute) per span name over a forest."""
    calls: dict[str, int] = {}
    rows: dict[str, int] = {}
    for root in roots:
        for record in root.walk():
            calls[record.name] = calls.get(record.name, 0) + 1
            if "rows" in record.attributes:
                rows[record.name] = rows.get(record.name, 0) + int(
                    record.attributes["rows"]
                )
    return calls, rows


def forest_to_json(roots) -> list[dict]:
    """The span forest as plain JSON-able dicts (seconds)."""

    def encode(record) -> dict:
        node = {
            "name": record.name,
            "start": record.start_offset,
            "elapsed": record.elapsed,
            "self": record.self_time,
        }
        if record.attributes:
            node["attributes"] = {
                key: value if isinstance(value, (int, float, str)) else str(value)
                for key, value in record.attributes.items()
            }
        if record.children:
            node["children"] = [encode(child) for child in record.children]
        return node

    return [encode(root) for root in roots]


class RepairTally:
    """Event sink counting ``RepairInvoked`` outcomes (attempts, successes)."""

    def __init__(self) -> None:
        self.attempts = 0
        self.repaired = 0

    def handle(self, event) -> None:
        from repro.telemetry import RepairInvoked

        if isinstance(event, RepairInvoked):
            self.attempts += 1
            self.repaired += bool(event.repaired)
