"""repro.market — multi-cloud market brokering on top of the allocator.

The paper optimizes consumer and provider criteria inside a single
datacenter estate.  This package extends the model to *N providers with
distinct price books* and brokers each request bundle across them (the
López-Pires multi-cloud brokering direction), in two layers:

* :mod:`repro.market.providers` — :class:`PriceBook` (static multiplier
  plus a deterministic dynamic price curve), :class:`Provider` and
  :class:`ProviderMarket`, which compiles N provider estates into one
  provider-tagged :class:`~repro.model.infrastructure.Infrastructure`
  whose cost vectors carry the prices in force at a given time;
* :mod:`repro.market.broker` — :class:`BrokeredAllocator`, which solves
  the bundle per provider *and* as a brokered cross-provider split,
  merges the per-provider fronts into one brokered Pareto front, and
  deploys the plan :func:`repro.objectives.preference.select_index`
  picks (the ceteris-paribus order ``--prefer`` installs, or the
  paper's ideal-point pick).

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
    "PriceBook",
    "Provider",
    "ProviderMarket",
]
