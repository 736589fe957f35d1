"""Random scenario generation (the paper's evaluation substrate).

A *scenario* is one provider estate plus one window of consumer
requests.  Knobs:

* ``servers`` / ``datacenters`` — estate size (servers split evenly);
* ``vms`` — total requested virtual machines, partitioned into
  requests of 1..``max_request_size`` resources;
* ``tightness`` — the fraction of total effective capacity the whole
  window demands.  0.5 is comfortable, 0.8+ forces real packing
  decisions, > 1 guarantees rejections;
* ``heterogeneity`` — coefficient of variation of server capacity and
  cost (0 = the homogeneous estates of quick tests);
* ``affinity_probability`` — chance each request carries at least one
  placement rule (rules and group sizes sampled per request).

Everything is driven by one seed, so scenario i of an experiment is
identical across algorithms — the paper averages "over 100 runs across
all randomly generated scenarios" and fair comparison needs identical
instances per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ValidationError
from repro.model.attributes import DEFAULT_ATTRIBUTES, AttributeSchema
from repro.model.infrastructure import Infrastructure
from repro.model.request import PlacementGroup, Request
from repro.serialization import (
    check_kind,
    infrastructure_from_dict,
    infrastructure_to_dict,
    request_from_dict,
    request_to_dict,
)
from repro.types import PlacementRule, SeedLike
from repro.utils.rng import derive_sequence, root_sequence

__all__ = [
    "ScenarioSpec",
    "Scenario",
    "ScenarioGenerator",
    "scenario_to_dict",
    "scenario_from_dict",
]

#: VM flavour mix: (cpu, ram GiB, disk GiB) and sampling weight —
#: loosely the small/medium/large/xlarge split of public IaaS catalogs.
_FLAVOURS = np.array(
    [
        [1.0, 2.0, 20.0],
        [2.0, 4.0, 40.0],
        [4.0, 16.0, 80.0],
        [8.0, 32.0, 160.0],
    ]
)
_FLAVOUR_WEIGHTS = np.array([0.4, 0.3, 0.2, 0.1])

#: Base server shape: a common 2-socket virtualization host.
_BASE_SERVER = np.array([32.0, 128.0, 2000.0])


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one random scenario family."""

    servers: int = 40
    datacenters: int = 2
    vms: int = 80
    max_request_size: int = 8
    tightness: float = 0.6
    heterogeneity: float = 0.3
    affinity_probability: float = 0.6
    max_vm_fraction: float = 0.35
    schema: AttributeSchema = field(default=DEFAULT_ATTRIBUTES)

    def __post_init__(self) -> None:
        if self.servers < 1 or self.vms < 1:
            raise ValidationError("servers and vms must be >= 1")
        if self.datacenters < 1 or self.datacenters > self.servers:
            raise ValidationError(
                "datacenters must lie in [1, servers] "
                f"(got {self.datacenters} for {self.servers} servers)"
            )
        if self.max_request_size < 1:
            raise ValidationError("max_request_size must be >= 1")
        if self.tightness <= 0:
            raise ValidationError("tightness must be > 0")
        if self.heterogeneity < 0:
            raise ValidationError("heterogeneity must be >= 0")
        if not (0.0 <= self.affinity_probability <= 1.0):
            raise ValidationError("affinity_probability must lie in [0, 1]")
        if not (0.0 < self.max_vm_fraction <= 1.0):
            raise ValidationError("max_vm_fraction must lie in (0, 1]")


@dataclass
class Scenario:
    """One generated instance: estate + request window."""

    infrastructure: Infrastructure
    requests: list[Request]
    spec: ScenarioSpec

    @property
    def n_vms(self) -> int:
        """Total virtual machines across the window."""
        return sum(r.n for r in self.requests)

    @property
    def n_requests(self) -> int:
        """Number of consumer requests in the window."""
        return len(self.requests)


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    """Serialize a whole generated scenario (estate + window + spec)."""
    spec = scenario.spec
    return {
        "kind": "scenario",
        "spec": {
            "servers": spec.servers,
            "datacenters": spec.datacenters,
            "vms": spec.vms,
            "max_request_size": spec.max_request_size,
            "tightness": spec.tightness,
            "heterogeneity": spec.heterogeneity,
            "affinity_probability": spec.affinity_probability,
            "max_vm_fraction": spec.max_vm_fraction,
        },
        "infrastructure": infrastructure_to_dict(scenario.infrastructure),
        "requests": [request_to_dict(r) for r in scenario.requests],
    }


def scenario_from_dict(data: dict[str, Any]) -> Scenario:
    """Inverse of :func:`scenario_to_dict`."""
    check_kind(data, "scenario")
    infrastructure = infrastructure_from_dict(data["infrastructure"])
    spec = ScenarioSpec(schema=infrastructure.schema, **data["spec"])
    return Scenario(
        infrastructure=infrastructure,
        requests=[request_from_dict(r) for r in data["requests"]],
        spec=spec,
    )


#: Stream coordinates below each instance's sub-root.  Every stochastic
#: axis of a scenario draws from its own :func:`derive_sequence` child,
#: so toggling one axis (e.g. ``affinity_probability=0``) cannot shift
#: the draws of an unrelated one (the estate, the demand matrix, ...).
_STREAM_INFRA = 0
_STREAM_SIZES = 1
_STREAM_DEMAND = 2
_STREAM_ATTRS = 3
_STREAM_GROUPS = 4


class ScenarioGenerator:
    """Seeded factory for :class:`Scenario` instances.

    Each generated instance derives a sub-root at its generation index,
    and every stochastic axis (estate, request sizes, demand, QoS/cost
    attributes, placement groups) draws from its own child stream below
    that sub-root — so scenario *i* is identical across runs, and
    changing one axis's parameters leaves the other axes' draws
    untouched (regression-tested in
    ``tests/unit/test_generator_streams.py``).
    """

    def __init__(self, spec: ScenarioSpec, seed: SeedLike = None) -> None:
        self.spec = spec
        self._root = root_sequence(seed)
        self._index = 0

    # ------------------------------------------------------------------
    def _make_infrastructure(self, rng: np.random.Generator) -> Infrastructure:
        spec = self.spec
        m, h = spec.servers, spec.schema.h
        # Heterogeneity: lognormal spread around the base server, one
        # scale factor per server (all attributes scale together, as
        # real hardware generations do) plus mild per-attribute noise.
        sigma = spec.heterogeneity
        scale = rng.lognormal(mean=0.0, sigma=sigma, size=m)
        jitter = rng.lognormal(mean=0.0, sigma=sigma / 4, size=(m, h))
        capacity = _BASE_SERVER[None, :h] * scale[:, None] * jitter
        # Virtualization overhead: a few percent per attribute.
        factor = rng.uniform(0.90, 1.0, size=(m, h))
        # Costs grow with capacity (bigger boxes cost more to run) with
        # noise, so consolidation onto efficient servers pays off.
        operating = 1.0 + 2.0 * scale * rng.uniform(0.8, 1.2, size=m)
        usage = 0.5 + 0.5 * scale * rng.uniform(0.8, 1.2, size=m)
        max_load = rng.uniform(0.7, 0.9, size=(m, h))
        max_qos = rng.uniform(0.95, 0.999, size=(m, h))
        # Servers assigned to datacenters contiguously and evenly.
        per_dc = np.full(spec.datacenters, m // spec.datacenters)
        per_dc[: m % spec.datacenters] += 1
        server_dc = np.repeat(np.arange(spec.datacenters), per_dc)
        return Infrastructure(
            capacity=capacity,
            capacity_factor=factor,
            operating_cost=operating,
            usage_cost=usage,
            max_load=max_load,
            max_qos=max_qos,
            server_datacenter=server_dc,
            schema=spec.schema,
        )

    def _partition_vms(self, rng: np.random.Generator) -> list[int]:
        """Split ``vms`` into request sizes in [1, max_request_size]."""
        spec = self.spec
        sizes: list[int] = []
        remaining = spec.vms
        while remaining > 0:
            size = int(rng.integers(1, min(spec.max_request_size, remaining) + 1))
            sizes.append(size)
            remaining -= size
        return sizes

    def _sample_groups(
        self,
        rng: np.random.Generator,
        block_demand: np.ndarray,
        g: int,
        m: int,
        server_reference: np.ndarray,
    ) -> tuple[PlacementGroup, ...]:
        """Placement rules for one request.

        ``block_demand`` is the request's (size, h) demand block and
        ``server_reference`` a typical server's effective capacity;
        SAME_SERVER groups are kept small (<= 3 members) and their
        combined demand below 80% of that reference so the generator
        does not manufacture trivially infeasible instances.
        """
        spec = self.spec
        size = block_demand.shape[0]
        if size < 2 or rng.random() >= spec.affinity_probability:
            return ()
        groups: list[PlacementGroup] = []
        n_rules = 1 + int(rng.random() < 0.3)  # usually one, sometimes two
        members_pool = np.arange(size)
        for _ in range(n_rules):
            rule = PlacementRule(
                rng.choice([r.value for r in PlacementRule])
            )
            max_members = size
            if rule is PlacementRule.DIFFERENT_DATACENTERS:
                max_members = min(size, g)
            elif rule is PlacementRule.DIFFERENT_SERVERS:
                max_members = min(size, m)
            elif rule is PlacementRule.SAME_SERVER:
                max_members = min(size, 3)
            if max_members < 2:
                continue
            count = int(rng.integers(2, max_members + 1))
            members = tuple(
                int(x) for x in rng.choice(members_pool, size=count, replace=False)
            )
            if rule is PlacementRule.SAME_SERVER:
                combined = block_demand[list(members)].sum(axis=0)
                if np.any(combined > 0.8 * server_reference):
                    continue  # would not fit a typical host together
            groups.append(PlacementGroup(rule=rule, members=members))
        # Drop contradictory pairs (same members under same-server AND
        # different-servers would be trivially infeasible).
        pruned: list[PlacementGroup] = []
        for group in groups:
            clash = False
            for kept in pruned:
                overlap = set(group.members) & set(kept.members)
                if len(overlap) >= 2 and group.rule.is_affinity != kept.rule.is_affinity:
                    clash = True
                    break
            if not clash:
                pruned.append(group)
        return tuple(pruned)

    def _make_requests(
        self,
        rng_sizes: np.random.Generator,
        rng_demand: np.random.Generator,
        rng_attrs: np.random.Generator,
        rng_groups: np.random.Generator,
        infrastructure: Infrastructure,
    ) -> list[Request]:
        spec = self.spec
        h = spec.schema.h
        sizes = self._partition_vms(rng_sizes)
        total_vms = sum(sizes)

        flavours = rng_demand.choice(
            len(_FLAVOURS), size=total_vms, p=_FLAVOUR_WEIGHTS
        )
        demand = _FLAVOURS[flavours][:, :h] * rng_demand.uniform(
            0.8, 1.2, size=(total_vms, h)
        )
        # Scale the whole window to the requested tightness, keeping any
        # single VM below max_vm_fraction of the *median* server so the
        # instance stays a packing problem rather than a lottery of
        # whole-server-sized VMs.  Clipping sheds demand, so a few
        # scale-and-clip rounds re-approach the tightness target.
        effective = infrastructure.effective_capacity
        total_capacity = effective.sum(axis=0)
        target = spec.tightness * total_capacity
        ceiling = spec.max_vm_fraction * np.median(effective, axis=0)
        demand *= target / demand.sum(axis=0)
        demand = np.minimum(demand, ceiling[None, :])
        for _ in range(3):
            shortfall = target - demand.sum(axis=0)
            at_ceiling = np.isclose(demand, ceiling[None, :])
            free_mass = np.where(at_ceiling, 0.0, demand).sum(axis=0)
            factor = 1.0 + np.clip(shortfall, 0.0, None) / np.maximum(
                free_mass, 1e-12
            )
            demand = np.where(at_ceiling, demand, demand * factor[None, :])
            demand = np.minimum(demand, ceiling[None, :])

        server_reference = np.median(effective, axis=0)
        requests: list[Request] = []
        offset = 0
        for ridx, size in enumerate(sizes):
            block = demand[offset : offset + size]
            offset += size
            groups = self._sample_groups(
                rng_groups,
                block,
                infrastructure.g,
                infrastructure.m,
                server_reference,
            )
            requests.append(
                Request(
                    demand=block,
                    qos_guarantee=rng_attrs.uniform(0.85, 0.99, size=size),
                    downtime_cost=rng_attrs.uniform(1.0, 10.0, size=size),
                    migration_cost=rng_attrs.uniform(0.5, 5.0, size=size),
                    groups=groups,
                    schema=spec.schema,
                    name=f"req{ridx}",
                )
            )
        return requests

    # ------------------------------------------------------------------
    def _stream(self, base: np.random.SeedSequence, axis: int) -> np.random.Generator:
        """The generator of one stochastic axis of one instance."""
        return np.random.default_rng(derive_sequence(base, axis))

    def generate(self) -> Scenario:
        """Produce the next scenario from this generator's stream."""
        base = derive_sequence(self._root, self._index)
        self._index += 1
        infrastructure = self._make_infrastructure(
            self._stream(base, _STREAM_INFRA)
        )
        requests = self._make_requests(
            self._stream(base, _STREAM_SIZES),
            self._stream(base, _STREAM_DEMAND),
            self._stream(base, _STREAM_ATTRS),
            self._stream(base, _STREAM_GROUPS),
            infrastructure,
        )
        return Scenario(
            infrastructure=infrastructure, requests=requests, spec=self.spec
        )

    def generate_many(self, count: int) -> list[Scenario]:
        """A batch of independent scenarios from the same stream."""
        if count < 0:
            raise ValidationError(f"count must be >= 0, got {count}")
        return [self.generate() for _ in range(count)]
