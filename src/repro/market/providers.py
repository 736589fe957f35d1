"""Providers, price books and the market → infrastructure compilation.

A *market* is N providers, each owning an estate (an
:class:`~repro.model.infrastructure.Infrastructure`) and charging by a
:class:`PriceBook`: a static multiplier pair over the paper's E/U cost
vectors plus a deterministic *dynamic price curve* (flat, diurnal
sinusoid, or linear trend) evaluated at a logical time.  Compiling the
market at time *t* concatenates the provider estates into one
provider-tagged infrastructure whose operating/usage cost vectors carry
the prices in force at *t* — so the usage-cost objective (Eq. 22) and
the energy term price themselves per provider with **zero** changes to
the evaluation hot path, and every downstream layer (constraints, EA,
CP, scheduler) sees a perfectly ordinary instance.

The degenerate one-provider market with the neutral price book compiles
to matrices byte-identical to its input infrastructure — the
``verify --check market`` differential anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError
from repro.model.infrastructure import Infrastructure
from repro.types import FloatArray, IntArray

__all__ = ["PriceBook", "Provider", "ProviderMarket", "MarketInstance"]

#: Dynamic price curve shapes a price book may declare.
_CURVES = ("flat", "diurnal", "trend")


@dataclass(frozen=True)
class PriceBook:
    """One provider's tariff over the paper's cost vectors.

    Parameters
    ----------
    operating_rate:
        Static multiplier on the estate's operating-cost vector E.
    usage_rate:
        Static multiplier on the usage-cost vector U.
    curve:
        Dynamic shape applied on top of the static rates: ``flat``
        (constant 1), ``diurnal`` (``1 + amplitude*sin(2π(t+phase)/period)``)
        or ``trend`` (``1 + amplitude*t/period``).
    amplitude, period, phase:
        Curve parameters; amplitude must keep prices positive.
    """

    operating_rate: float = 1.0
    usage_rate: float = 1.0
    curve: str = "flat"
    amplitude: float = 0.0
    period: float = 24.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.operating_rate < 0 or self.usage_rate < 0:
            raise ValidationError("price-book rates must be >= 0")
        if self.curve not in _CURVES:
            raise ValidationError(
                f"unknown price curve {self.curve!r}; pick from {_CURVES}"
            )
        if self.period <= 0:
            raise ValidationError("price-curve period must be > 0")
        if self.curve == "diurnal" and not (0 <= self.amplitude < 1):
            raise ValidationError(
                "diurnal amplitude must lie in [0, 1) to keep prices positive"
            )
        if self.curve == "trend" and self.amplitude < 0:
            raise ValidationError("trend amplitude must be >= 0")

    # ------------------------------------------------------------------
    def multiplier_at(self, time: float) -> float:
        """The dynamic factor in force at logical ``time``."""
        if self.curve == "flat":
            return 1.0
        if self.curve == "diurnal":
            return 1.0 + self.amplitude * math.sin(
                2.0 * math.pi * (time + self.phase) / self.period
            )
        return 1.0 + self.amplitude * time / self.period  # trend

    def price_at(self, time: float) -> tuple[float, float]:
        """(operating, usage) multipliers in force at ``time``."""
        dyn = self.multiplier_at(time)
        return self.operating_rate * dyn, self.usage_rate * dyn

    def to_dict(self) -> dict:
        """The tariff as a JSON-ready dict."""
        return {
            "operating_rate": self.operating_rate,
            "usage_rate": self.usage_rate,
            "curve": self.curve,
            "amplitude": self.amplitude,
            "period": self.period,
            "phase": self.phase,
        }


@dataclass(frozen=True)
class Provider:
    """One cloud provider: a named estate plus its tariff."""

    name: str
    infrastructure: Infrastructure
    price_book: PriceBook = field(default_factory=PriceBook)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("a provider needs a non-empty name")


@dataclass(frozen=True)
class MarketInstance:
    """One market compilation: the provider-tagged estate at a time.

    Attributes
    ----------
    infrastructure:
        The merged estate with per-provider prices folded into its cost
        vectors and every server tagged with its provider id.
    time:
        The logical time the dynamic curves were evaluated at.
    prices:
        The (operating, usage) multiplier pair per provider in force.
    """

    infrastructure: Infrastructure
    time: float
    prices: tuple[tuple[float, float], ...]

    @property
    def p(self) -> int:
        """Number of providers in the merged estate."""
        return self.infrastructure.p


class ProviderMarket:
    """N providers with distinct price books, compiled on demand.

    Parameters
    ----------
    providers:
        The participating providers.  All estates must share one
        attribute schema (the h columns must mean the same thing for
        cross-provider objective vectors to be comparable).
    """

    def __init__(self, providers: "list[Provider] | tuple[Provider, ...]") -> None:
        providers = tuple(providers)
        if not providers:
            raise ValidationError("a market needs at least one provider")
        names = [p.name for p in providers]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate provider names in {names}")
        h = providers[0].infrastructure.h
        schema = providers[0].infrastructure.schema
        for provider in providers[1:]:
            if provider.infrastructure.h != h or (
                provider.infrastructure.schema.names != schema.names
            ):
                raise ValidationError(
                    "all provider estates must share one attribute schema"
                )
        self.providers = providers

    def __len__(self) -> int:
        return len(self.providers)

    @property
    def names(self) -> tuple[str, ...]:
        """Provider names, in provider order."""
        return tuple(p.name for p in self.providers)

    # ------------------------------------------------------------------
    def compile(self, at: float = 0.0) -> MarketInstance:
        """Merge the provider estates into one instance priced at ``at``.

        Server order is provider-major (provider 0's servers first),
        datacenter ids are offset per provider so they stay contiguous,
        and each provider's E/U vectors are scaled by its price book's
        multipliers at ``at``.  A one-provider market with a neutral
        book reproduces its input infrastructure's matrices exactly
        (same objects are not reused, but every array is equal byte for
        byte) — the single-provider identity the market checker proves.
        """
        caps: list[FloatArray] = []
        facs: list[FloatArray] = []
        ops: list[FloatArray] = []
        uses: list[FloatArray] = []
        loads: list[FloatArray] = []
        qoses: list[FloatArray] = []
        dcs: list[IntArray] = []
        tags: list[IntArray] = []
        dc_names: list[str] = []
        srv_names: list[str] = []
        prices: list[tuple[float, float]] = []
        dc_offset = 0
        for k, provider in enumerate(self.providers):
            infra = provider.infrastructure
            op_mult, use_mult = provider.price_book.price_at(at)
            if op_mult <= 0 or use_mult <= 0:
                raise ValidationError(
                    f"provider {provider.name!r} prices collapsed to <= 0 "
                    f"at t={at} (operating {op_mult}, usage {use_mult})"
                )
            prices.append((op_mult, use_mult))
            caps.append(infra.capacity)
            facs.append(infra.capacity_factor)
            ops.append(infra.operating_cost * op_mult)
            uses.append(infra.usage_cost * use_mult)
            loads.append(infra.max_load)
            qoses.append(infra.max_qos)
            dcs.append(infra.server_datacenter + dc_offset)
            tags.append(np.full(infra.m, k, dtype=np.int64))
            dc_names.extend(
                infra.datacenter_names
                or tuple(f"{provider.name}/dc{i}" for i in range(infra.g))
            )
            srv_names.extend(
                infra.server_names
                or tuple(f"{provider.name}/srv{j}" for j in range(infra.m))
            )
            dc_offset += infra.g
        single = len(self.providers) == 1
        infrastructure = Infrastructure(
            capacity=np.vstack(caps),
            capacity_factor=np.vstack(facs),
            operating_cost=np.concatenate(ops),
            usage_cost=np.concatenate(uses),
            max_load=np.vstack(loads),
            max_qos=np.vstack(qoses),
            server_datacenter=np.concatenate(dcs),
            schema=self.providers[0].infrastructure.schema,
            datacenter_names=(
                self.providers[0].infrastructure.datacenter_names
                if single
                else tuple(dc_names)
            ),
            server_names=(
                self.providers[0].infrastructure.server_names
                if single
                else tuple(srv_names)
            ),
            # A degenerate one-provider market stays untagged so its
            # compiled fingerprint (and every cache keyed on it) is
            # byte-identical to the plain single-estate path.
            server_provider=None if single else np.concatenate(tags),
            provider_names=() if single else self.names,
        )
        return MarketInstance(
            infrastructure=infrastructure, time=at, prices=tuple(prices)
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_infrastructure(
        cls,
        infrastructure: Infrastructure,
        n_providers: int,
        price_books: "list[PriceBook] | tuple[PriceBook, ...] | None" = None,
        names: "tuple[str, ...] | None" = None,
    ) -> "ProviderMarket":
        """Partition one estate into an N-provider market.

        Datacenters are dealt round-robin to providers (datacenter i →
        provider ``i % n``), which preserves server order *within* each
        provider and keeps each provider's datacenter ids contiguous.
        When the estate has fewer datacenters than providers, *servers*
        are dealt round-robin instead (server j → provider ``j % n``).
        With ``n_providers=1`` and no price books this is the identity
        market: compiling it reproduces ``infrastructure`` exactly.

        Default price books (when none are given) differentiate the
        providers deterministically — provider k gets static rates
        ``1 + 0.1*k`` on usage and ``1 - 0.05*k`` (floored at 0.5) on
        operating cost with a phase-shifted diurnal curve — so a bare
        ``--providers N`` run exercises real price asymmetry without
        extra configuration.
        """
        n = int(n_providers)
        if n < 1:
            raise ValidationError(f"need at least one provider, got {n}")
        if n > infrastructure.m:
            raise ValidationError(
                f"cannot split {infrastructure.m} server(s) across "
                f"{n} providers"
            )
        if price_books is not None and len(price_books) != n:
            raise ValidationError(
                f"{len(price_books)} price books for {n} providers"
            )
        if names is not None and len(names) != n:
            raise ValidationError(f"{len(names)} names for {n} providers")
        if price_books is None:
            if n == 1:
                price_books = [PriceBook()]
            else:
                price_books = [
                    PriceBook(
                        operating_rate=max(0.5, 1.0 - 0.05 * k),
                        usage_rate=1.0 + 0.1 * k,
                        curve="diurnal",
                        amplitude=0.15,
                        period=24.0,
                        phase=8.0 * k,
                    )
                    for k in range(n)
                ]
        names = names or tuple(f"provider{k}" for k in range(n))

        if n == 1:
            # Identity market: hand the estate over verbatim (no row
            # reshuffle), so compile() reproduces it byte for byte even
            # when its server order interleaves datacenters.
            return cls(
                [
                    Provider(
                        name=names[0],
                        infrastructure=infrastructure,
                        price_book=price_books[0],
                    )
                ]
            )

        by_datacenter = infrastructure.g >= n
        providers: list[Provider] = []
        for k in range(n):
            if by_datacenter:
                datacenters = [
                    i for i in range(infrastructure.g) if i % n == k
                ]
                rows = np.concatenate(
                    [
                        infrastructure.servers_in_datacenter(i)
                        for i in datacenters
                    ]
                )
            else:
                rows = np.arange(infrastructure.m, dtype=np.int64)[k::n]
                datacenters = sorted(
                    {int(dc) for dc in infrastructure.server_datacenter[rows]}
                )
            dc_remap = {dc: new for new, dc in enumerate(datacenters)}
            sub = Infrastructure(
                capacity=infrastructure.capacity[rows],
                capacity_factor=infrastructure.capacity_factor[rows],
                operating_cost=infrastructure.operating_cost[rows],
                usage_cost=infrastructure.usage_cost[rows],
                max_load=infrastructure.max_load[rows],
                max_qos=infrastructure.max_qos[rows],
                server_datacenter=np.asarray(
                    [
                        dc_remap[int(dc)]
                        for dc in infrastructure.server_datacenter[rows]
                    ],
                    dtype=np.int64,
                ),
                schema=infrastructure.schema,
                datacenter_names=tuple(
                    infrastructure.datacenter_names[i] for i in datacenters
                )
                if infrastructure.datacenter_names
                else (),
                server_names=tuple(
                    infrastructure.server_names[j] for j in rows
                )
                if infrastructure.server_names
                else (),
            )
            providers.append(
                Provider(
                    name=names[k],
                    infrastructure=sub,
                    price_book=price_books[k],
                )
            )
        return cls(providers)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProviderMarket(p={len(self)}, names={self.names})"
