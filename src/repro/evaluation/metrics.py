"""Per-run records and aggregation of the paper's four criteria.

One :class:`RunRecord` captures everything a single (algorithm,
scenario) execution produced; :func:`aggregate_records` averages any
homogeneous group of records into :class:`AggregateMetrics` — the
numbers behind every point of Figures 7-11.  Dynamic runs fold their
windows into :class:`repro.scheduler.summary.ScenarioMetrics` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.allocator import BatchOutcome
from repro.errors import ValidationError

__all__ = [
    "RunRecord",
    "AggregateMetrics",
    "aggregate_records",
]


@dataclass(frozen=True)
class RunRecord:
    """One algorithm execution on one scenario."""

    algorithm: str
    servers: int
    vms: int
    requests: int
    elapsed: float
    rejection_rate: float
    violations: int
    provider_cost: float
    downtime_cost: float
    migration_cost: float
    evaluations: int = 0
    seed: int | None = None

    @property
    def accepted_requests(self) -> int:
        """Requests actually hosted in this run."""
        return round(self.requests * (1.0 - self.rejection_rate))

    @property
    def cost_per_accepted_request(self) -> float:
        """The paper's future-work metric: "a normalized and
        standardized metric on a cost per request basis".

        Dividing the provider cost by the number of *accepted* requests
        removes the bias Figure 11's discussion warns about — an
        algorithm that rejects most demands looks cheap in absolute
        cost.  ``inf`` when nothing was accepted (all cost, no revenue
        base).
        """
        accepted = self.accepted_requests
        if accepted == 0:
            return float("inf")
        return self.provider_cost / accepted

    @classmethod
    def from_outcome(
        cls,
        outcome: BatchOutcome,
        servers: int,
        vms: int,
        seed: int | None = None,
    ) -> "RunRecord":
        """Lift a :class:`BatchOutcome` into a record."""
        return cls(
            algorithm=outcome.algorithm,
            servers=int(servers),
            vms=int(vms),
            requests=outcome.n_requests,
            elapsed=outcome.elapsed,
            rejection_rate=outcome.rejection_rate,
            violations=outcome.violations,
            provider_cost=outcome.provider_cost,
            downtime_cost=float(outcome.objectives[1]),
            migration_cost=float(outcome.objectives[2]),
            evaluations=outcome.evaluations,
            seed=seed,
        )


@dataclass(frozen=True)
class AggregateMetrics:
    """Mean and standard deviation over a group of runs."""

    algorithm: str
    servers: int
    vms: int
    runs: int
    mean_elapsed: float
    std_elapsed: float
    mean_rejection_rate: float
    std_rejection_rate: float
    mean_violations: float
    std_violations: float
    mean_provider_cost: float
    std_provider_cost: float
    mean_cost_per_request: float = float("nan")

    def metric(self, name: str) -> float:
        """Look up an aggregated mean by figure-friendly name."""
        mapping = {
            "execution_time": self.mean_elapsed,
            "rejection_rate": self.mean_rejection_rate,
            "violations": self.mean_violations,
            "provider_cost": self.mean_provider_cost,
            "cost_per_request": self.mean_cost_per_request,
        }
        try:
            return mapping[name]
        except KeyError:
            raise ValidationError(
                f"unknown metric {name!r}; choose from {sorted(mapping)}"
            ) from None


def aggregate_records(records: list[RunRecord]) -> AggregateMetrics:
    """Average a homogeneous group (same algorithm and size) of runs."""
    if not records:
        raise ValidationError("cannot aggregate zero records")
    algorithms = {r.algorithm for r in records}
    sizes = {(r.servers, r.vms) for r in records}
    if len(algorithms) != 1 or len(sizes) != 1:
        raise ValidationError(
            f"records are not homogeneous: algorithms={algorithms}, sizes={sizes}"
        )
    elapsed = np.array([r.elapsed for r in records])
    rejection = np.array([r.rejection_rate for r in records])
    violations = np.array([r.violations for r in records], dtype=np.float64)
    cost = np.array([r.provider_cost for r in records])
    per_request = np.array([r.cost_per_accepted_request for r in records])
    finite = per_request[np.isfinite(per_request)]
    mean_per_request = float(finite.mean()) if finite.size else float("inf")
    (servers, vms), = sizes
    return AggregateMetrics(
        algorithm=records[0].algorithm,
        servers=servers,
        vms=vms,
        runs=len(records),
        mean_elapsed=float(elapsed.mean()),
        std_elapsed=float(elapsed.std()),
        mean_rejection_rate=float(rejection.mean()),
        std_rejection_rate=float(rejection.std()),
        mean_violations=float(violations.mean()),
        std_violations=float(violations.std()),
        mean_provider_cost=float(cost.mean()),
        std_provider_cost=float(cost.std()),
        mean_cost_per_request=mean_per_request,
    )
