"""BrokeredAllocator: split a request bundle across cloud providers.

The broker receives one bundle of consumer requests and a
:class:`~repro.market.providers.ProviderMarket`.  It compiles the
market at the requested logical time (so each provider's dynamic
prices are in force), then builds one *candidate plan* per route:

* ``provider:<name>`` — the whole bundle confined to that provider's
  estate.  Confinement reuses the scheduler's blocking trick: servers
  outside the provider are pre-loaded to full effective capacity via
  ``base_usage``, so any inner allocator honours the boundary without
  provider-aware code.
* ``split`` — the bundle solved over the whole market at once, free to
  spread across providers wherever the priced cost vectors make that
  profitable.

Every plan is scored on the *same* merged instance (identical objective
semantics), then checked against the market-layer constraint of QoS
co-location: each request wholly inside one provider — a request is the
broker's atomic unit.  Plans that violate it are excluded from the
brokered front unless no clean plan exists.  The surviving plans'
objective vectors are filtered to mutual non-domination — the
**brokered Pareto front** — and the deployed plan is chosen by
:func:`repro.objectives.preference.select_index`: the active
ceteris-paribus order when one is set, the paper's ideal-point pick
otherwise.

Every step is deterministic per seed: provider routes are tried in
provider order, the inner allocator is rebuilt per route from the same
factory, and selection is RNG-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.allocator import Allocator, BatchOutcome
from repro.errors import ValidationError
from repro.market.providers import MarketInstance, ProviderMarket
from repro.model.placement import UNPLACED
from repro.model.request import Request
from repro.objectives.preference import active_preference, select_index
from repro.telemetry import get_registry, span
from repro.types import FloatArray, IntArray
from repro.utils.pareto import non_dominated_mask

__all__ = ["BrokeredPlan", "BrokeredOutcome", "BrokeredAllocator"]


@dataclass(frozen=True)
class BrokeredPlan:
    """One deployable candidate: a route and its full allocation.

    Attributes
    ----------
    route:
        ``provider:<name>`` for single-provider confinement, ``split``
        for the free cross-provider solve.
    outcome:
        The inner allocator's :class:`~repro.allocator.BatchOutcome`
        over the merged market instance (global server indices).
    objectives:
        The plan's (3,) objective vector (= ``outcome.objectives``).
    market_violations:
        QoS-colocation violations of the market layer (0 for a
        clean brokered plan; instance-level violations are counted in
        ``outcome.violations`` as usual).
    provider_of_request:
        Per-request provider id, or -1 for a rejected/straddling
        request — the brokered routing table.
    """

    route: str
    outcome: BatchOutcome
    objectives: FloatArray
    market_violations: int
    provider_of_request: IntArray

    @property
    def clean(self) -> bool:
        """Deployable without breaking any market-layer rule."""
        return self.market_violations == 0 and self.outcome.violations == 0


@dataclass(frozen=True)
class BrokeredOutcome:
    """What the broker did with one bundle.

    ``front`` holds the mutually-nondominated deployable plans (the
    brokered Pareto front); ``deployed`` is the preference-selected
    member; ``plans`` keeps every candidate for diagnostics.
    """

    instance: MarketInstance
    plans: tuple[BrokeredPlan, ...]
    front: tuple[BrokeredPlan, ...]
    deployed: BrokeredPlan
    preference_spec: str | None

    @property
    def front_objectives(self) -> FloatArray:
        """(k, 3) objective matrix of the brokered front."""
        return np.stack([plan.objectives for plan in self.front])


class BrokeredAllocator:
    """Market-level allocator racing routes across N providers.

    Parameters
    ----------
    market:
        The participating providers and their price books.
    allocator_factory:
        Zero-argument callable building a fresh inner
        :class:`~repro.allocator.Allocator` per route (fresh state
        keeps routes independent and seed-deterministic).

    A request the split route places on k > 1 providers counts k - 1
    market violations: requests are atomic brokering units.
    """

    def __init__(
        self,
        market: ProviderMarket,
        allocator_factory: Callable[[], Allocator],
    ) -> None:
        self.market = market
        self.allocator_factory = allocator_factory

    # ------------------------------------------------------------------
    def allocate(
        self,
        requests: Sequence[Request],
        at: float = 0.0,
        base_usage: FloatArray | None = None,
    ) -> BrokeredOutcome:
        """Broker one bundle at logical time ``at``."""
        requests = list(requests)
        if not requests:
            raise ValidationError("the broker needs a non-empty bundle")
        instance = self.market.compile(at=at)
        infrastructure = instance.infrastructure
        merged, owner = Request.concatenate(requests)
        registry = get_registry()

        plans: list[BrokeredPlan] = []
        with span("market.broker", providers=instance.p, requests=len(requests)):
            for k in range(instance.p):
                # Every server outside provider k is full for this route.
                blocked = infrastructure.blocked_usage(
                    base_usage, infrastructure.provider_of_server != k
                )
                outcome = self._solve(infrastructure, requests, blocked)
                plans.append(
                    self._plan(f"provider:{self.market.names[k]}", outcome, instance, owner, merged)
                )
            if instance.p > 1:
                outcome = self._solve(infrastructure, requests, base_usage)
                plans.append(self._plan("split", outcome, instance, owner, merged))

        clean = [plan for plan in plans if plan.clean]
        pool = clean if clean else plans
        objectives = np.stack([plan.objectives for plan in pool])
        mask = non_dominated_mask(objectives)
        front = tuple(plan for plan, keep in zip(pool, mask) if keep)

        preference = active_preference()
        deployed = front[
            select_index(
                np.stack([plan.objectives for plan in front]), preference
            )
        ]
        registry.count("market.broker.bundles")
        registry.count("market.broker.plans", len(plans))
        registry.gauge("market.broker.front_size", len(front))
        registry.gauge(
            "market.broker.deployed_cost", float(deployed.objectives[0])
        )
        return BrokeredOutcome(
            instance=instance,
            plans=tuple(plans),
            front=front,
            deployed=deployed,
            preference_spec=None if preference is None else preference.spec,
        )

    # ------------------------------------------------------------------
    def _solve(
        self,
        infrastructure,
        requests: Sequence[Request],
        base_usage: FloatArray | None,
    ) -> BatchOutcome:
        allocator = self.allocator_factory()
        try:
            return allocator.allocate(
                infrastructure, list(requests), base_usage=base_usage
            )
        finally:
            allocator.close()

    def _plan(
        self,
        route: str,
        outcome: BatchOutcome,
        instance: MarketInstance,
        owner: IntArray,
        merged: Request,
    ) -> BrokeredPlan:
        """Score one route's outcome against the market-layer rules."""
        assignment = outcome.assignment
        provider_of_server = instance.infrastructure.provider_of_server
        n_requests = int(owner.max()) + 1 if owner.size else 0
        provider_of_request = np.full(n_requests, -1, dtype=np.int64)
        market_violations = 0

        for r in range(n_requests):
            genes = assignment[owner == r]
            placed = genes[genes != UNPLACED]
            if placed.size == 0 or not outcome.accepted[r]:
                continue
            providers = np.unique(provider_of_server[placed])
            if providers.size == 1:
                provider_of_request[r] = int(providers[0])
            else:
                # Distinct providers beyond the first are violations.
                market_violations += int(providers.size) - 1

        return BrokeredPlan(
            route=route,
            outcome=outcome,
            objectives=np.asarray(outcome.objectives, dtype=np.float64),
            market_violations=int(market_violations),
            provider_of_request=provider_of_request,
        )
