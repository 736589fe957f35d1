"""Constraint propagation: initial pruning and forward checking.

Two layers, as in any CP solver:

* :func:`initial_prune` — node-consistency before search: a server
  that cannot fit a VM's demand even when empty leaves that VM's
  domain; anti-affinity groups larger than the number of distinct
  locations are detected as trivially infeasible.
* :func:`propagate_assignment` — forward checking after ``vm = server``
  is decided: the changed server's residual capacity filters the
  domains of unassigned VMs, and the decided VM's groups tighten its
  partners' domains (same-server partners collapse to the server,
  same-datacenter partners restrict to the datacenter, different-*
  partners lose the location).
"""

from __future__ import annotations

import numpy as np

from repro.cp.domains import DomainStore
from repro.model.infrastructure import Infrastructure
from repro.model.request import Request
from repro.types import FloatArray, PlacementRule

__all__ = ["initial_prune", "propagate_assignment"]


def initial_prune(
    domains: DomainStore,
    infrastructure: Infrastructure,
    request: Request,
    free_capacity: FloatArray,
) -> bool:
    """Node consistency; returns False when some domain died.

    ``free_capacity`` is effective capacity minus committed usage —
    per-(server, attribute) room available to this request.
    """
    # Capacity: server j can ever host VM k only if demand fits the
    # (initially) free room.  One broadcast comparison covers all pairs.
    fits = np.all(
        request.demand[:, None, :] <= free_capacity[None, :, :] + 1e-9, axis=2
    )  # (n, m)
    for vm in range(request.n):
        if not domains.restrict_to(vm, fits[vm]):
            return False

    # Anti-affinity pigeonhole: a DIFFERENT_DATACENTERS group larger
    # than g (or DIFFERENT_SERVERS larger than m) cannot be satisfied.
    for group in request.groups:
        if group.rule is PlacementRule.DIFFERENT_DATACENTERS:
            if group.size > infrastructure.g:
                return False
        elif group.rule is PlacementRule.DIFFERENT_SERVERS:
            if group.size > infrastructure.m:
                return False
    return True


def propagate_assignment(
    domains: DomainStore,
    infrastructure: Infrastructure,
    request: Request,
    member_groups: list[list[int]],
    assignment: np.ndarray,
    residual: FloatArray,
    vm: int,
    server: int,
) -> bool:
    """Forward checking after deciding ``vm = server``.

    ``assignment`` holds -1 for undecided VMs; ``residual`` is the
    remaining free capacity *after* the decision was applied.  Returns
    False on any domain wipe-out.
    """
    # Capacity: only `server`'s residual changed; drop it from the
    # domains of undecided VMs it can no longer fit.
    room = residual[server]
    undecided = np.flatnonzero(assignment < 0)
    if undecided.size:
        too_big = np.any(request.demand[undecided] > room + 1e-9, axis=1)
        for k in undecided[too_big]:
            if int(k) == vm:
                continue
            if not domains.remove_value(int(k), server):
                return False

    # Group rules touching the decided VM.
    dc_of = infrastructure.server_datacenter
    server_dc = int(dc_of[server])
    for gi in member_groups[vm]:
        group = request.groups[gi]
        rule = group.rule
        for partner in group.members:
            if partner == vm or assignment[partner] >= 0:
                continue
            if rule is PlacementRule.SAME_SERVER:
                ok = domains.assign(partner, server)
            elif rule is PlacementRule.SAME_DATACENTER:
                ok = domains.restrict_to(partner, dc_of == server_dc)
            elif rule is PlacementRule.DIFFERENT_SERVERS:
                ok = domains.remove_value(partner, server)
            elif rule is PlacementRule.DIFFERENT_DATACENTERS:
                ok = domains.remove_where(partner, dc_of == server_dc)
            else:  # pragma: no cover - enum is exhaustive
                ok = True
            if not ok:
                return False
    return True
