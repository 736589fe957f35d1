"""A plain per-genome pricing of Eq. 4-26, the tests' independent oracle.

The library scores every genome through one body, the population path
of :class:`~repro.objectives.evaluator.PopulationEvaluator`.  This
module prices one genome again from the instance arrays alone, with
Python loops and scalar float arithmetic, so tests can hold the
population path to it row by row under every evaluation setting.

Usage cells are summed in VM index order — the order ``np.bincount``
accumulates in — and the capacity threshold follows the constraint
layer's relative slack, so violation counts compare exactly; objective
terms compare to float re-association noise.
"""

from __future__ import annotations

import math

import numpy as np

from repro.model.placement import UNPLACED
from repro.types import PlacementRule

#: Overflow slack of the capacity constraint (relative, >= 1 abs).
TOLERANCE = 1e-9
#: Idle share of a host's E + U power price in the linear power model.
IDLE_FRACTION = 0.6


def _threshold(limit: float) -> float:
    return limit + TOLERANCE * max(1.0, abs(limit))


def _qos(usage: float, capacity: float, knee: float, ceiling: float) -> float:
    """Eq. 25 load then the Eq. 24 curve for one cell."""
    if capacity > 0.0:
        load = usage / capacity
    else:
        load = math.inf if usage > 0.0 else usage
    if load <= knee:
        return ceiling
    return ceiling * math.exp(min(0.0, (knee - load) / (1.0 - knee)))


def _group_count(rule: PlacementRule, servers: list[int], datacenter) -> int:
    if len(servers) <= 1:
        return 0
    if rule is PlacementRule.SAME_SERVER:
        return len(set(servers)) - 1
    if rule is PlacementRule.DIFFERENT_SERVERS:
        return len(servers) - len(set(servers))
    places = [datacenter[s] for s in servers]
    if rule is PlacementRule.SAME_DATACENTER:
        return len(set(places)) - 1
    return len(places) - len(set(places))


def price(
    infrastructure,
    request,
    assignment,
    *,
    base_usage=None,
    previous_assignment=None,
    per_server_operating: bool = False,
    include_assignment_constraint: bool = False,
    energy_weight: float = 0.0,
) -> tuple[dict[str, int], np.ndarray]:
    """Violations by term and the (3,) objective vector of one genome.

    The keyword arguments mirror :class:`PopulationEvaluator`'s, plus
    :class:`UsageOperatingCost`'s ``per_server_operating``.  The
    violation terms are ``capacity``, ``group`` and ``unplaced`` (0
    when the assignment constraint is off).
    """
    m, h = infrastructure.m, infrastructure.h
    genes = [int(g) for g in assignment]
    demand = request.demand.tolist()
    capacity = infrastructure.capacity.tolist()
    factor = infrastructure.capacity_factor.tolist()
    knee = infrastructure.max_load.tolist()
    ceiling = infrastructure.max_qos.tolist()
    base = (
        np.zeros((m, h)) if base_usage is None else np.asarray(base_usage, dtype=float)
    ).tolist()

    usage = [[0.0] * h for _ in range(m)]
    residents: list[list[int]] = [[] for _ in range(m)]
    for k, server in enumerate(genes):
        if server == UNPLACED:
            continue
        residents[server].append(k)
        for a in range(h):
            usage[server][a] += demand[k][a]

    # Constraints: Eq. 4 capacity, Eq. 9-12 groups and Eq. 5 assignment.
    violations = {"capacity": 0, "group": 0, "unplaced": 0}
    for j in range(m):
        for a in range(h):
            limit = capacity[j][a] * factor[j][a] - base[j][a]
            violations["capacity"] += usage[j][a] > _threshold(limit)
    datacenter = infrastructure.server_datacenter.tolist()
    for group in request.groups:
        placed = [genes[k] for k in group.members if genes[k] != UNPLACED]
        violations["group"] += _group_count(group.rule, placed, datacenter)
    if include_assignment_constraint:
        violations["unplaced"] = sum(g == UNPLACED for g in genes)

    # Eq. 22: E_j + U_j per hosted resource, or E_j once per active host.
    operating = infrastructure.operating_cost.tolist()
    usage_rate = infrastructure.usage_cost.tolist()
    provider = 0.0
    for j in range(m):
        if per_server_operating:
            provider += usage_rate[j] * len(residents[j])
            provider += operating[j] if residents[j] else 0.0
        else:
            provider += (operating[j] + usage_rate[j]) * len(residents[j])
    if energy_weight > 0.0:
        energy = 0.0
        for j in range(m):
            if not residents[j]:
                continue
            fractions = []
            for a in range(h):
                effective = capacity[j][a] * factor[j][a]
                used = usage[j][a] + base[j][a]
                fractions.append(used / effective if effective > 0 else 0.0)
            rate = operating[j] + usage_rate[j]
            load = sum(fractions) / h
            energy += IDLE_FRACTION * rate + (1.0 - IDLE_FRACTION) * rate * load
        provider += energy_weight * energy

    # Eq. 23: each resource pays for its host's worst-attribute QoS.
    guarantee = request.qos_guarantee.tolist()
    charge = request.downtime_cost.tolist()
    downtime = 0.0
    for j in range(m):
        if not residents[j]:
            continue
        qos = min(
            _qos(usage[j][a] + base[j][a], capacity[j][a], knee[j][a], ceiling[j][a])
            for a in range(h)
        )
        for k in residents[j]:
            downtime += charge[k] * max(0.0, (guarantee[k] - qos) / guarantee[k])

    # Eq. 26: a previously placed resource pays when its host changes.
    migration = 0.0
    if previous_assignment is not None:
        cost = request.migration_cost.tolist()
        for k, (now, before) in enumerate(zip(genes, previous_assignment)):
            if int(before) != UNPLACED and now != int(before):
                migration += cost[k]

    return violations, np.array([provider, downtime, migration])


def total_violations(violations: dict[str, int]) -> int:
    """The population path's violation count: the sum of every term."""
    return int(sum(violations.values()))
