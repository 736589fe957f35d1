"""Filter-scheduler baseline — Table II's "Filtering Algorithm" column.

The production-cloud allocation style the paper's Table II grades
alongside Round Robin, constraint programming and NSGA: the
filter-and-weigh scheduler popularized by OpenStack Nova.  Placement of
each resource is a two-phase decision:

1. **Filter** — drop servers that cannot host the resource (capacity,
   affinity/anti-affinity consistency) — exactly the validity masks of
   the shared greedy scaffolding;
2. **Weigh** — score the survivors with a weighted sum of normalized
   criteria and take the best.  Weighers here: free capacity (spread),
   cost rate (cheapness), both normalized to [0, 1] per decision.

Table II's verdict on this family — good constraint compliance and
infrastructure control, weaker scalability story than NSGA — falls out
of the measurement in `bench_table2_capabilities.py`.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.greedy_base import GreedyAllocator
from repro.engine.compiled import CompiledProblem
from repro.errors import ValidationError
from repro.types import FloatArray, IntArray

__all__ = ["FilterSchedulerAllocator"]


class FilterSchedulerAllocator(GreedyAllocator):
    """Filter + weigh placement (OpenStack-style).

    Parameters
    ----------
    free_capacity_weight:
        Weight of the normalized free-capacity score (higher = spread
        load, the availability-friendly pull).
    cost_weight:
        Weight of the normalized cheapness score (higher = consolidate
        onto cheap servers, the provider-cost pull).
    """

    name = "filter_scheduler"

    def __init__(
        self,
        free_capacity_weight: float = 1.0,
        cost_weight: float = 1.0,
    ) -> None:
        if free_capacity_weight < 0 or cost_weight < 0:
            raise ValidationError("weights must be >= 0")
        if free_capacity_weight == 0 and cost_weight == 0:
            raise ValidationError("at least one weigher must be active")
        self.free_capacity_weight = float(free_capacity_weight)
        self.cost_weight = float(cost_weight)

    def _candidate_order(
        self,
        compiled: CompiledProblem,
        residual: FloatArray,
        demand: FloatArray,
        valid: np.ndarray,
    ) -> IntArray:
        candidates = np.flatnonzero(valid)
        if candidates.size == 1:
            return candidates.astype(np.int64)

        # Weigher 1: normalized free capacity after hosting the demand.
        free = (residual[candidates] - demand).sum(axis=1)
        free_span = free.max() - free.min()
        free_score = (
            (free - free.min()) / free_span if free_span > 0 else np.ones_like(free)
        )

        # Weigher 2: normalized cheapness (lower E+U rate = higher score).
        rate = compiled.per_resource_rate[candidates]
        rate_span = rate.max() - rate.min()
        cheap_score = (
            (rate.max() - rate) / rate_span if rate_span > 0 else np.ones_like(rate)
        )

        score = (
            self.free_capacity_weight * free_score
            + self.cost_weight * cheap_score
        )
        return candidates[np.argsort(-score, kind="stable")].astype(np.int64)
