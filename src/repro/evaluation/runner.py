"""Experiment runner: algorithms × size sweep × repetitions.

The paper reports results "averaged ... over 100 runs across all
randomly generated scenarios".  :class:`ExperimentRunner` reproduces
that protocol: for each sweep point it generates ``runs`` scenarios
(deterministically from the experiment seed, identical across
algorithms), executes every algorithm on every scenario, and
aggregates the four criteria per (algorithm, size).

Allocators are supplied as zero-argument *factories* so stateful
algorithms (Round Robin's rotation pointer) start fresh each run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.allocator import Allocator
from repro.errors import ValidationError
from repro.evaluation.metrics import (
    AggregateMetrics,
    RunRecord,
    aggregate_records,
)
from repro.runtime.signals import shutdown_requested
from repro.telemetry import MetricsRegistry, MetricsSnapshot, use_registry
from repro.workloads.generator import Scenario, ScenarioGenerator, ScenarioSpec

__all__ = ["AllocatorFactory", "SweepResult", "ExperimentRunner"]

AllocatorFactory = Callable[[], Allocator]


@dataclass
class SweepResult:
    """All records of one experiment, with aggregation helpers.

    ``telemetry`` carries the :class:`~repro.telemetry.MetricsSnapshot`
    of the sweep's own registry: one ``evaluation.cells`` count per
    computed cell plus every nested counter (``nsga.evaluations``, CP
    nodes, repair moves).  It is not part of the CSV round-trip.
    """

    records: list[RunRecord] = field(default_factory=list)
    telemetry: MetricsSnapshot | None = None
    #: True when the sweep stopped early on a shutdown request; the
    #: completed cells are journaled and a rerun with the same
    #: ``checkpoint_dir`` picks up where this one stopped.
    interrupted: bool = False

    # Column order of the CSV export (and of from_csv's expectations).
    _CSV_FIELDS = (
        "algorithm",
        "servers",
        "vms",
        "requests",
        "elapsed",
        "rejection_rate",
        "violations",
        "provider_cost",
        "downtime_cost",
        "migration_cost",
        "evaluations",
        "seed",
    )

    def to_csv(self, path) -> "Path":
        """Write every record to ``path`` (one row per run)."""
        import csv
        from pathlib import Path

        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self._CSV_FIELDS)
            for record in self.records:
                writer.writerow(
                    [getattr(record, field) for field in self._CSV_FIELDS]
                )
        return path

    @classmethod
    def from_csv(cls, path) -> "SweepResult":
        """Reload an exported sweep (inverse of :meth:`to_csv`)."""
        import csv
        from pathlib import Path

        records: list[RunRecord] = []
        with Path(path).open(newline="") as handle:
            reader = csv.DictReader(handle)
            for row in reader:
                records.append(
                    RunRecord(
                        algorithm=row["algorithm"],
                        servers=int(row["servers"]),
                        vms=int(row["vms"]),
                        requests=int(row["requests"]),
                        elapsed=float(row["elapsed"]),
                        rejection_rate=float(row["rejection_rate"]),
                        violations=int(row["violations"]),
                        provider_cost=float(row["provider_cost"]),
                        downtime_cost=float(row["downtime_cost"]),
                        migration_cost=float(row["migration_cost"]),
                        evaluations=int(row["evaluations"]),
                        seed=None if row["seed"] in ("", "None") else int(row["seed"]),
                    )
                )
        return cls(records=records)

    def algorithms(self) -> list[str]:
        """Distinct algorithm labels, in first-seen order."""
        seen: list[str] = []
        for record in self.records:
            if record.algorithm not in seen:
                seen.append(record.algorithm)
        return seen

    def sizes(self) -> list[tuple[int, int]]:
        """Distinct (servers, vms) sweep points, in first-seen order."""
        seen: list[tuple[int, int]] = []
        for record in self.records:
            key = (record.servers, record.vms)
            if key not in seen:
                seen.append(key)
        return seen

    def aggregate(self, algorithm: str, size: tuple[int, int]) -> AggregateMetrics:
        """Averages for one (algorithm, sweep point) cell."""
        group = [
            r
            for r in self.records
            if r.algorithm == algorithm and (r.servers, r.vms) == size
        ]
        if not group:
            raise ValidationError(
                f"no records for algorithm={algorithm!r} size={size}"
            )
        return aggregate_records(group)

    def series(self, metric: str) -> dict[str, list[float]]:
        """Figure series: per algorithm, the metric across sweep sizes."""
        sizes = self.sizes()
        return {
            algorithm: [
                self.aggregate(algorithm, size).metric(metric) for size in sizes
            ]
            for algorithm in self.algorithms()
        }


class ExperimentRunner:
    """Run a set of algorithm factories over a scenario sweep.

    Parameters
    ----------
    factories:
        Mapping of label → allocator factory.  The label overrides the
        allocator's own name in the records (so two configurations of
        the same algorithm can coexist in one experiment).
    runs:
        Scenario repetitions per sweep point (paper: 100).
    seed:
        Root seed; scenario i of sweep point j is identical for every
        algorithm and stable across processes.
    """

    def __init__(
        self,
        factories: dict[str, AllocatorFactory],
        runs: int = 5,
        seed: int = 0,
    ) -> None:
        if not factories:
            raise ValidationError("need at least one allocator factory")
        if runs < 1:
            raise ValidationError(f"runs must be >= 1, got {runs}")
        self.factories = dict(factories)
        self.runs = int(runs)
        self.seed = int(seed)

    # ------------------------------------------------------------------
    def _scenarios_for(self, spec: ScenarioSpec, point_index: int) -> list[Scenario]:
        generator = ScenarioGenerator(
            spec, seed=self.seed + 7919 * point_index
        )
        return generator.generate_many(self.runs)

    # ------------------------------------------------------------------
    # Per-cell resume journal
    # ------------------------------------------------------------------
    @staticmethod
    def _load_cell_journal(path: Path) -> dict[tuple[int, int, str], RunRecord]:
        """Completed cells from a previous (possibly killed) sweep.

        Each journal line is one finished cell.  A process dying
        mid-append leaves at most one torn final line, which fails to
        parse and is dropped — the cell simply reruns.
        """
        completed: dict[tuple[int, int, str], RunRecord] = {}
        if not path.exists():
            return completed
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                point_index, run_index, label = entry["key"]
                record = RunRecord(**entry["record"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                continue  # torn or foreign line: rerun that cell
            completed[(int(point_index), int(run_index), str(label))] = record
        return completed

    @staticmethod
    def _append_cell(
        handle, key: tuple[int, int, str], record: RunRecord
    ) -> None:
        """Durably append one finished cell to the journal."""
        handle.write(
            json.dumps({"key": list(key), "record": record.__dict__}) + "\n"
        )
        handle.flush()
        os.fsync(handle.fileno())

    def run_sweep(
        self,
        specs: Sequence[ScenarioSpec],
        checkpoint_dir: str | Path | None = None,
    ) -> SweepResult:
        """Execute the full experiment and return every record.

        With ``checkpoint_dir``, every finished (point, run, algorithm)
        cell is appended to ``cells.jsonl`` in that directory, and a
        rerun reloads completed cells instead of recomputing them — so
        a killed 100-run campaign resumes at the cell it died in.  A
        shutdown request (SIGTERM/SIGINT under
        :class:`~repro.runtime.signals.GracefulShutdown`) stops the
        sweep at the next cell boundary with ``interrupted=True``.
        Reloaded cells contribute their records but not their nested
        telemetry (that was consumed by the run that computed them).
        """
        journal = None
        completed: dict[tuple[int, int, str], RunRecord] = {}
        if checkpoint_dir is not None:
            directory = Path(checkpoint_dir)
            directory.mkdir(parents=True, exist_ok=True)
            journal_path = directory / "cells.jsonl"
            completed = self._load_cell_journal(journal_path)
            journal = journal_path.open("a")

        result = SweepResult()
        # The sweep runs against its own scoped registry, so nested
        # instrumentation (NSGA generations, CP nodes, repair moves)
        # lands in this sweep's snapshot and nowhere else.
        registry = MetricsRegistry()
        try:
            with use_registry(registry):
                for point_index, spec in enumerate(specs):
                    if result.interrupted:
                        break
                    scenarios = self._scenarios_for(spec, point_index)
                    for run_index, scenario in enumerate(scenarios):
                        if result.interrupted:
                            break
                        for label, factory in self.factories.items():
                            key = (point_index, run_index, label)
                            if key in completed:
                                result.records.append(completed[key])
                                registry.count("runtime.sweep.cells_skipped")
                                continue
                            if shutdown_requested():
                                result.interrupted = True
                                break
                            allocator = factory()
                            outcome = allocator.allocate(
                                scenario.infrastructure, scenario.requests
                            )
                            registry.count("evaluation.cells", algorithm=label)
                            registry.observe(
                                "evaluation.cell_seconds",
                                outcome.elapsed,
                                algorithm=label,
                            )
                            record = RunRecord.from_outcome(
                                outcome,
                                servers=spec.servers,
                                vms=spec.vms,
                                seed=run_index,
                            )
                            # The label keys the experiment, not the class name.
                            record = RunRecord(
                                **{**record.__dict__, "algorithm": label}
                            )
                            result.records.append(record)
                            if journal is not None:
                                # runtime.sweep.* counters only exist on
                                # journaled sweeps.
                                self._append_cell(journal, key, record)
                                registry.count("runtime.sweep.cells_completed")
        finally:
            if journal is not None:
                journal.close()
        result.telemetry = registry.snapshot()
        return result
