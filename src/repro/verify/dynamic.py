"""Dynamic metamorphic laws: scenario-stream transformations with
known consequences.

The static laws (:mod:`repro.verify.metamorphic`) hold one window
fixed and transform the instance; these laws transform the *stream* a
:class:`~repro.scheduler.window.TimeWindowScheduler` consumes and state
what the trajectory must preserve.  All three are theorems of the
scheduler's batching semantics, not solver properties:

* :class:`WindowPermutationLaw` — permuting the request blocks of one
  window's batch (and its genome through the same permutation) leaves
  objectives and the violation breakdown identical and permutes the
  rejection mask.  The *evaluation* of a window is order-free even
  though greedy allocators are order-sensitive;
* :class:`TimeShiftLaw` — shifting every event by an integral number of
  windows shifts the decision sequence by exactly that many (empty)
  windows and reproduces the final ledger byte-for-byte: leading idle
  windows touch no allocator or platform state;
* :class:`DrainFailEquivalenceLaw` — relabelling every maintenance
  drain as an unplanned failure changes reporting only: decisions,
  displacements and the final ledger are identical, and the
  drain/failure classification swaps exactly.

Each law supports *fault injection* (``inject=...``) that deliberately
breaks its transformation — a misaligned shift, a dropped drain, a
half-applied permutation — so the regression suite can prove the law
would actually catch a violation (see
``tests/unit/test_scenario_metrics.py``).

:func:`check_dynamic_laws` returns one ``dynamic``
:class:`~repro.verify.checks.Report`; each mismatch names its law.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Callable

import numpy as np

from repro.allocator import Allocator
from repro.errors import ValidationError
from repro.scheduler.events import ServerFailureEvent
from repro.scheduler.window import TimeWindowScheduler, WindowReport
from repro.verify.checks import Report
from repro.verify.metamorphic import _evaluate
from repro.workloads.scenarios import (
    CompiledScenario,
    DynamicScenarioSpec,
    compile_scenario,
    get_scenario,
)

__all__ = [
    "DYNAMIC_LAWS",
    "DrainFailEquivalenceLaw",
    "TimeShiftLaw",
    "WindowPermutationLaw",
    "check_dynamic_laws",
]


def _default_allocator() -> Allocator:
    from repro.baselines.round_robin import RoundRobinAllocator

    return RoundRobinAllocator()


def _drive(
    compiled: CompiledScenario, allocator: Allocator
) -> tuple[list[WindowReport], TimeWindowScheduler]:
    """Drain the whole stream; returns (reports, final scheduler)."""
    scheduler = compiled.build_scheduler(allocator)
    reports: list[WindowReport] = []
    while scheduler.pending_events:
        reports.append(scheduler.run_window())
    return reports, scheduler


def _ledger(scheduler: TimeWindowScheduler) -> str:
    """Canonical platform ledger: residents + committed usage bytes.

    Clock and window index are excluded on purpose — the time-shift law
    moves both while demanding everything here stays byte-identical.
    """
    residents = [
        [key, [int(g) for g in scheduler.state.previous_assignment(key)]]
        for key in sorted(scheduler.state.tenants())
    ]
    return json.dumps(
        {
            "residents": residents,
            "usage": scheduler.state.committed_usage.tolist(),
            "failed": sorted(scheduler.failed_servers),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def _decisions(report: WindowReport) -> dict:
    """The order-insensitive decision content of one window."""
    return {
        "arrivals": sorted(report.arrivals),
        "departures": sorted(report.departures),
        "accepted": sorted(report.accepted),
        "rejected": sorted(report.rejected),
        "displaced": sorted(report.displaced),
        "outage": sorted([*report.failures, *report.drains]),
        "recoveries": sorted(report.recoveries),
    }


class DynamicLaw:
    """One stream transformation with a checkable consequence."""

    name: str = "dynamic_law"

    def check(
        self,
        compiled: CompiledScenario,
        allocator_factory: Callable[[], Allocator],
        report: Report,
        inject: str | None = None,
    ) -> None:
        """Apply the transformation and note each consequence it must
        keep in ``report``, under the law's name."""
        raise NotImplementedError


class WindowPermutationLaw(DynamicLaw):
    """Batch-order permutation ⇒ identical evaluation, permuted mask."""

    name = "window_permutation"

    def check(self, compiled, allocator_factory, report, inject=None):
        """Check the law on one compiled scenario's densest window."""
        spec = compiled.spec
        # The arrivals of the first window holding at least two
        # requests form the batch under test.
        by_window: dict[int, list] = {}
        for event in compiled.arrivals:
            by_window.setdefault(
                int(event.time // spec.window_length), []
            ).append(event)
        batch = next(
            (
                events
                for _, events in sorted(by_window.items())
                if len(events) >= 2
            ),
            None,
        )
        if batch is None:
            raise ValidationError(
                f"scenario {spec.name!r} has no window with >= 2 arrivals"
            )
        requests = [event.request for event in batch]
        allocator = allocator_factory()
        try:
            outcome = allocator.allocate(compiled.infrastructure, requests)
        finally:
            allocator.close()

        if inject == "permute_requests_only":
            # The self-test needs a guaranteed non-identity permutation.
            perm = np.roll(np.arange(len(requests)), 1)
        else:
            rng = np.random.default_rng(compiled.seed)
            perm = rng.permutation(len(requests))
        blocks: list[np.ndarray] = []
        offset = 0
        for request in requests:
            blocks.append(outcome.assignment[offset : offset + request.n])
            offset += request.n
        permuted_requests = [requests[i] for i in perm]
        if inject == "permute_requests_only":
            permuted_assignment = outcome.assignment
        else:
            permuted_assignment = np.concatenate([blocks[i] for i in perm])

        before = _evaluate(
            compiled.infrastructure, requests, outcome.assignment
        )
        after = _evaluate(
            compiled.infrastructure, permuted_requests, permuted_assignment
        )
        report.note(
            np.allclose(before[0], after[0], rtol=1e-9, atol=1e-9),
            self.name,
            "objectives",
            "objectives changed under batch-order permutation: "
            f"{before[0].tolist()} -> {after[0].tolist()}",
        )
        report.note(
            before[1] == after[1],
            self.name,
            "breakdown",
            "violation breakdown changed under batch-order permutation: "
            f"{before[1]} -> {after[1]}",
        )
        report.note(
            np.array_equal(before[2][perm], after[2]),
            self.name,
            "rejections",
            "rejection mask did not permute with the batch",
        )


class TimeShiftLaw(DynamicLaw):
    """Integral window shift ⇒ shifted decisions, identical ledger."""

    name = "time_shift"

    #: Windows to shift by (integral — the law's precondition).
    shift_windows: int = 2

    def check(self, compiled, allocator_factory, report, inject=None):
        """Check the law by replaying the stream shifted in time."""
        spec = compiled.spec
        shift = self.shift_windows * spec.window_length
        if inject == "shift_misalign":
            shift = 0.5 * spec.window_length
        offset = int(shift // spec.window_length)
        shifted = CompiledScenario(
            spec=spec,
            seed=compiled.seed,
            infrastructure=compiled.infrastructure,
            arrivals=[
                replace(e, time=e.time + shift) for e in compiled.arrivals
            ],
            departures=[
                replace(e, time=e.time + shift) for e in compiled.departures
            ],
            failures=[
                replace(e, time=e.time + shift) for e in compiled.failures
            ],
            drains=[replace(e, time=e.time + shift) for e in compiled.drains],
            recoveries=[
                replace(e, time=e.time + shift) for e in compiled.recoveries
            ],
        )
        base_reports, base_sched = _drive(compiled, allocator_factory())
        shift_reports, shift_sched = _drive(shifted, allocator_factory())

        for window in shift_reports[:offset]:
            report.note(
                not any(
                    (
                        window.arrivals,
                        window.accepted,
                        window.rejected,
                        window.departures,
                        window.displaced,
                        window.failures,
                        window.drains,
                    )
                ),
                self.name,
                "idle",
                f"leading window {window.window_index} of the shifted run "
                f"was not idle: {_decisions(window)}",
            )
        report.note(
            len(shift_reports) == len(base_reports) + offset,
            self.name,
            "windows",
            f"shifted run closed {len(shift_reports)} windows, expected "
            f"{len(base_reports)} + {offset}",
        )
        mirrored = max(0, len(shift_reports) - offset)
        for index, base in enumerate(base_reports[:mirrored]):
            same = _decisions(base) == _decisions(shift_reports[index + offset])
            report.note(
                same,
                self.name,
                "decisions",
                f"window {index} decisions changed under a {shift:g}-unit "
                "time shift",
            )
            if not same:
                break
        report.note(
            _ledger(base_sched) == _ledger(shift_sched),
            self.name,
            "ledger",
            "final platform ledger changed under time shift",
        )


class DrainFailEquivalenceLaw(DynamicLaw):
    """Drain→failure relabelling ⇒ identical trajectory, swapped report."""

    name = "drain_fail_equivalence"

    def check(self, compiled, allocator_factory, report, inject=None):
        """Check the law by relabelling every drain as a crash."""
        spec = compiled.spec
        if not compiled.drains:
            # The law needs maintenance events; synthesize them by
            # recompiling the spec with drains switched on.
            compiled = compile_scenario(
                replace(spec, drain_count=2), seed=compiled.seed
            )
        as_failures = [
            ServerFailureEvent(time=e.time, server=e.server, reason="failure")
            for e in compiled.drains
        ]
        if inject == "drain_drop":
            as_failures = []
        relabelled = CompiledScenario(
            spec=compiled.spec,
            seed=compiled.seed,
            infrastructure=compiled.infrastructure,
            arrivals=compiled.arrivals,
            departures=compiled.departures,
            failures=[*compiled.failures, *as_failures],
            drains=[],
            recoveries=compiled.recoveries,
        )
        drain_reports, drain_sched = _drive(compiled, allocator_factory())
        crash_reports, crash_sched = _drive(relabelled, allocator_factory())

        report.note(
            len(drain_reports) == len(crash_reports),
            self.name,
            "windows",
            f"relabelled run closed {len(crash_reports)} windows, the drain "
            f"run {len(drain_reports)}",
        )
        for index, (a, b) in enumerate(zip(drain_reports, crash_reports)):
            same = _decisions(a) == _decisions(b)
            report.note(
                same,
                self.name,
                "decisions",
                f"window {index} decisions changed when drains were relabelled "
                "as failures",
            )
            if not same:
                break
            swapped = not b.drains and sorted([*a.failures, *a.drains]) == sorted(
                b.failures
            )
            report.note(
                swapped,
                self.name,
                "outages",
                f"window {index} outage classification did not swap drains for "
                f"failures: drain run failures={list(a.failures)} "
                f"drains={list(a.drains)}, crash run failures={list(b.failures)} "
                f"drains={list(b.drains)}",
            )
            if not swapped:
                break
        report.note(
            _ledger(drain_sched) == _ledger(crash_sched),
            self.name,
            "ledger",
            "final platform ledger changed under drain relabelling",
        )


#: The built-in dynamic laws, in documentation order.
DYNAMIC_LAWS: tuple[DynamicLaw, ...] = (
    WindowPermutationLaw(),
    TimeShiftLaw(),
    DrainFailEquivalenceLaw(),
)


def check_dynamic_laws(
    scenario: DynamicScenarioSpec | str = "steady_churn",
    seed: int = 0,
    *,
    allocator_factory: Callable[[], Allocator] | None = None,
    inject: str | None = None,
) -> Report:
    """Run every dynamic law against one compiled scenario.

    Returns one ``dynamic`` :class:`Report`; ``stats["laws"]`` counts
    the laws run.  ``inject`` deliberately breaks the matching law's
    transformation (``"shift_misalign"``, ``"drain_drop"``,
    ``"permute_requests_only"``) — the report must then come back
    non-ok, which the regression suite uses to prove each law has
    teeth.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    factory = allocator_factory or _default_allocator
    compiled = compile_scenario(scenario, seed=seed)
    report = Report(
        "dynamic",
        f"{scenario.name} seed={seed}",
        stats={"laws": len(DYNAMIC_LAWS)},
    )
    for law in DYNAMIC_LAWS:
        law.check(compiled, factory, report, inject=inject)
    return report
