"""Energy cost — an optional provider-side power term (off by default).

The paper's related-work section (Panggabean et al.) optimizes data
center energy with the standard linear server power model: an *active*
host draws a constant idle power plus a dynamic component proportional
to its load fraction::

    energy(X) = sum_{j active under X} idle_j + dynamic_j * load_j

where ``load_j`` is the mean utilized fraction over the host's
resource attributes (committed base usage included) and a host is
active when it receives at least one resource of the current batch.

The paper prices everything in "equivalent monetary cost", so the term
folds into objective column 0 (usage + operating cost) scaled by a
configurable ``energy_weight`` rather than growing the objective
space; weight 0.0 — the default everywhere — leaves the published
three-objective formulation byte-identical.  The power price vectors
are derived deterministically from the infrastructure's own cost
vectors (:func:`power_model`), so compiled-problem fingerprints and
caches are unchanged by the feature.
"""

from __future__ import annotations

import numpy as np

from repro.engine.kernels import active_kernel
from repro.errors import DimensionError
from repro.model.infrastructure import Infrastructure
from repro.types import FloatArray, IntArray

__all__ = ["ENERGY_IDLE_FRACTION", "EnergyCost", "power_model"]

#: Fraction of a host's power price charged the moment it is switched
#: on, regardless of load — the conventional ~60/40 idle/dynamic split
#: of the linear server power model.
ENERGY_IDLE_FRACTION = 0.6


def power_model(
    infrastructure: Infrastructure,
) -> tuple[FloatArray, FloatArray]:
    """Per-server (idle, dynamic) power price vectors.

    Derived from ``E_j + U_j`` — the same coefficient Eq. 22 charges —
    split by :data:`ENERGY_IDLE_FRACTION`, so no new instance data is
    required and instance fingerprints stay stable.
    """
    rate = infrastructure.operating_cost + infrastructure.usage_cost
    idle = ENERGY_IDLE_FRACTION * rate
    dynamic = (1.0 - ENERGY_IDLE_FRACTION) * rate
    return idle, dynamic


class EnergyCost:
    """Vectorized linear-power-model energy evaluator.

    Parameters
    ----------
    infrastructure:
        Supplies capacities and, via :func:`power_model`, the default
        power prices.
    demand:
        The request's (n, h) demand matrix — needed to scatter usage
        when the caller has none at hand.
    base_usage:
        Committed usage from earlier windows; counts toward each
        host's load fraction but never toggles a host active.
    idle_power, dynamic_power:
        Override price vectors (m,); defaults come from
        :func:`power_model`.
    """

    name = "energy"

    def __init__(
        self,
        infrastructure: Infrastructure,
        demand: FloatArray,
        *,
        base_usage: FloatArray | None = None,
        idle_power: FloatArray | None = None,
        dynamic_power: FloatArray | None = None,
    ) -> None:
        self.infrastructure = infrastructure
        self._demand = np.asarray(demand, dtype=np.float64)
        default_idle, default_dynamic = power_model(infrastructure)
        self.idle_power: FloatArray = (
            default_idle if idle_power is None
            else np.asarray(idle_power, dtype=np.float64)
        )
        self.dynamic_power: FloatArray = (
            default_dynamic if dynamic_power is None
            else np.asarray(dynamic_power, dtype=np.float64)
        )
        capacity = infrastructure.effective_capacity
        self._base: FloatArray = (
            np.zeros_like(capacity) if base_usage is None
            else np.asarray(base_usage, dtype=np.float64)
        )
        #: 1 / (P * F) per (server, attribute): usage times this is the
        #: load fraction, 0 on degenerate zero-capacity cells.
        self.inv_capacity: FloatArray = np.where(
            capacity > 0, 1.0 / np.where(capacity > 0, capacity, 1.0), 0.0
        )

    # ------------------------------------------------------------------
    def upper_bound(self) -> float:
        """Energy with every host on at load 1 — the invariant ceiling.

        Loads can exceed 1 only on *violating* placements; feasible
        ones (what the invariant catalog checks) stay under this.
        """
        return float((self.idle_power + self.dynamic_power).sum())

    def batch(
        self, population: IntArray, usage: FloatArray | None = None
    ) -> FloatArray:
        """Energy per individual; pass ``usage`` (pop, m, h) to reuse it."""
        population = np.asarray(population, dtype=np.int64)
        if population.ndim != 2:
            raise DimensionError(
                f"population must be 2-D, got shape {population.shape}"
            )
        pop, n = population.shape
        m = self.infrastructure.m
        kernel = active_kernel()
        active = kernel.batch_active(population, m)
        if usage is None:
            usage = kernel.batch_usage(population, self._demand, m)
        load = ((usage + self._base[None, :, :])
                * self.inv_capacity[None, :, :]).mean(axis=2)
        per_server = self.idle_power[None, :] + self.dynamic_power[None, :] * load
        return np.where(active, per_server, 0.0).sum(axis=1)
