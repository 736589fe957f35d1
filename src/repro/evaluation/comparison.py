"""The computed capability matrix behind Table II.

Table II of the paper grades allocation approaches on four needs:
*compliance with constraints*, *resource scalability*, *compliance with
customer requests* and *control over infrastructure*.  Rather than
hardcoding checkmarks, this module measures each criterion with a
small probe experiment, so the table is a reproducible artifact:

* **constraints** — zero violated constraints on a constrained probe;
* **scalability** — execution time grows sub-linearly in instance area
  (time ratio below size ratio) between a small and a medium probe;
* **customer requests** — rejection rate at most 0.25 on a probe whose
  windows are known to be placeable;
* **infrastructure control** — provider cost within 2x of the (loose)
  everything-on-the-cheapest-server lower bound: the algorithm
  demonstrably steers placement by cost rather than ignoring it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.allocator import Allocator
from repro.evaluation.runner import AllocatorFactory
from repro.workloads.generator import ScenarioGenerator, ScenarioSpec

__all__ = ["TABLE2_CRITERIA", "CapabilityRow", "capability_matrix"]

#: Row labels, matching Table II's order.
TABLE2_CRITERIA: tuple[str, ...] = (
    "compliance_with_constraints",
    "resource_scalability",
    "compliance_with_customer_requests",
    "control_over_infrastructure",
)

_SMALL = ScenarioSpec(
    servers=16, datacenters=2, vms=32, tightness=0.7, affinity_probability=0.9
)
_MEDIUM = ScenarioSpec(
    servers=48, datacenters=2, vms=96, tightness=0.7, affinity_probability=0.9
)


@dataclass(frozen=True)
class CapabilityRow:
    """Measured capabilities of one algorithm."""

    algorithm: str
    compliance_with_constraints: bool
    resource_scalability: bool
    compliance_with_customer_requests: bool
    control_over_infrastructure: bool
    details: dict


def _cheapest_rate_bound(scenario) -> float:
    """Optimistic provider cost: every VM on the cheapest server."""
    infra = scenario.infrastructure
    rate = infra.operating_cost + infra.usage_cost
    return float(rate.min() * scenario.n_vms)


def capability_matrix(
    factories: dict[str, AllocatorFactory],
    seed: int = 0,
    runs: int = 2,
) -> list[CapabilityRow]:
    """Measure every algorithm on the four Table II criteria."""
    small_scenarios = ScenarioGenerator(_SMALL, seed=seed).generate_many(runs)
    medium_scenarios = ScenarioGenerator(_MEDIUM, seed=seed + 1).generate_many(
        runs
    )

    rows: list[CapabilityRow] = []
    for label, factory in factories.items():
        small_times, medium_times = [], []
        violations, rejections, cost_ratios = [], [], []
        for scenario in small_scenarios:
            allocator: Allocator = factory()
            outcome = allocator.allocate(
                scenario.infrastructure, scenario.requests
            )
            small_times.append(outcome.elapsed)
            violations.append(outcome.violations)
            rejections.append(outcome.rejection_rate)
            bound = _cheapest_rate_bound(scenario)
            cost_ratios.append(
                outcome.provider_cost / bound if bound > 0 else np.inf
            )
        for scenario in medium_scenarios:
            allocator = factory()
            outcome = allocator.allocate(
                scenario.infrastructure, scenario.requests
            )
            medium_times.append(outcome.elapsed)

        area_ratio = (_MEDIUM.servers * _MEDIUM.vms) / (
            _SMALL.servers * _SMALL.vms
        )
        time_ratio = (np.mean(medium_times) + 1e-9) / (
            np.mean(small_times) + 1e-9
        )
        details = {
            "mean_violations": float(np.mean(violations)),
            "mean_rejection_rate": float(np.mean(rejections)),
            "mean_cost_ratio": float(np.mean(cost_ratios)),
            "time_ratio": float(time_ratio),
            "area_ratio": float(area_ratio),
        }
        rows.append(
            CapabilityRow(
                algorithm=label,
                compliance_with_constraints=float(np.mean(violations)) == 0.0,
                resource_scalability=time_ratio <= area_ratio,
                compliance_with_customer_requests=float(np.mean(rejections))
                <= 0.25,
                control_over_infrastructure=float(np.mean(cost_ratios)) <= 2.0,
                details=details,
            )
        )
    return rows
