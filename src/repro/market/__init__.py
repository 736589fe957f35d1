"""repro.market — multi-cloud market brokering on top of the allocator.

The paper optimizes consumer and provider criteria inside a single
datacenter estate.  This package extends the model to *N providers with
distinct price books* and brokers each request bundle across them (the
López-Pires multi-cloud brokering direction), in three layers:

* :mod:`repro.market.preferences` — ceteris-paribus preference orders
  (``provider_cost>qos>migration``-style specs) that deterministically
  select the deployed solution from any Pareto front, replacing the
  implicit ideal-point pick wherever a single plan is committed;
* :mod:`repro.market.providers` — :class:`PriceBook` (static multiplier
  plus a deterministic dynamic price curve), :class:`Provider` and
  :class:`ProviderMarket`, which compiles N provider estates into one
  provider-tagged :class:`~repro.model.infrastructure.Infrastructure`
  whose cost vectors carry the prices in force at a given time;
* :mod:`repro.market.broker` — :class:`BrokeredAllocator`, which solves
  the bundle per provider *and* as a brokered cross-provider split,
  merges the per-provider fronts into one brokered Pareto front, and
  deploys the preference-selected plan.

The single-provider path is byte-identical to the pre-market code:
one default provider compiles to today's matrices and fingerprints
(enforced by ``python -m repro verify --check market``).  The full
story — provider model, price-book grammar, brokering flow, preference
spec grammar and a worked example — lives in ``docs/MARKET.md``.
"""

from repro.market.broker import (
    BrokeredAllocator,
    BrokeredOutcome,
    BrokeredPlan,
)
from repro.market.preferences import (
    PREFERENCE_CRITERIA,
    PreferenceOrder,
    active_preference,
    parse_preference,
    select_index,
    set_preference,
)
from repro.market.providers import (
    MarketInstance,
    PriceBook,
    Provider,
    ProviderMarket,
)

__all__ = [
    "BrokeredAllocator",
    "BrokeredOutcome",
    "BrokeredPlan",
    "MarketInstance",
    "PREFERENCE_CRITERIA",
    "PreferenceOrder",
    "PriceBook",
    "Provider",
    "ProviderMarket",
    "active_preference",
    "parse_preference",
    "select_index",
    "set_preference",
]
