"""Neighbour search for the tabu repair (the paper's Fig. 6).

``findNeighbor(I, i)`` scans servers and returns the first one where
re-hosting VM i is a *valid allocation*: the server has room for the
VM's demand on every attribute, and the move does not break any
affinity/anti-affinity group the VM belongs to.  Those are the two
primitives of :class:`NeighborFinder`: :meth:`~NeighborFinder.fits`
compares a residual ``limit - usage`` with the demand, and
:meth:`~NeighborFinder.apply_rules` ANDs the VM's group rules into a
mask.  :meth:`~NeighborFinder.find` runs both over the residual the
repair walk maintains move by move, and a :class:`TabuList` removes
recently vacated (vm, server) pairs from the candidate set so repeated
repairs do not cycle.  The greedy baselines and admission's rejection
diagnosis call the two primitives over residuals of their own.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.engine.compiled import CompiledProblem
from repro.errors import ValidationError
from repro.types import BoolArray, FloatArray, IntArray, PlacementRule

__all__ = ["TabuList", "NeighborFinder"]


class TabuList:
    """Fixed-capacity memory of forbidden (vm, server) moves.

    The classic short-term tabu memory (Glover 1986): when VM k leaves
    server j during repair, (k, j) becomes tabu for ``tenure``
    insertions, preventing the walk from immediately undoing itself.
    """

    def __init__(self, tenure: int = 64) -> None:
        if tenure < 0:
            raise ValidationError(f"tenure must be >= 0, got {tenure}")
        self.tenure = int(tenure)
        self._entries: OrderedDict[tuple[int, int], None] = OrderedDict()
        # Per-VM index so findNeighbor's hot path is O(|tabu for vm|),
        # not O(tenure) — this was the profiler's top line otherwise.
        self._by_vm: dict[int, set[int]] = {}

    def add(self, vm: int, server: int) -> None:
        """Forbid moving ``vm`` back onto ``server`` for a while."""
        if self.tenure == 0:
            return
        vm, server = int(vm), int(server)
        key = (vm, server)
        self._entries.pop(key, None)
        self._entries[key] = None
        self._by_vm.setdefault(vm, set()).add(server)
        while len(self._entries) > self.tenure:
            (old_vm, old_server), _ = self._entries.popitem(last=False)
            servers = self._by_vm.get(old_vm)
            if servers is not None:
                servers.discard(old_server)
                if not servers:
                    del self._by_vm[old_vm]

    def __contains__(self, key: tuple[int, int]) -> bool:
        return (int(key[0]), int(key[1])) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def forbidden_servers(self, vm: int) -> set[int]:
        """All servers currently tabu for ``vm`` (do not mutate)."""
        return self._by_vm.get(int(vm), _EMPTY_SET)

    def clear(self) -> None:
        """Drop all memory (between individuals)."""
        self._entries.clear()
        self._by_vm.clear()


_EMPTY_SET: frozenset = frozenset()


class NeighborFinder:
    """Vectorized ``isValidAllocation`` over all servers at once.

    Parameters
    ----------
    compiled:
        The :class:`~repro.engine.CompiledProblem` of the instance.
    base_usage:
        Committed usage from earlier windows (shrinks free capacity).
    """

    def __init__(
        self, compiled: CompiledProblem, base_usage: FloatArray | None = None
    ) -> None:
        self.request = compiled.request
        limit = compiled.effective_capacity
        if base_usage is not None:
            limit = limit - np.asarray(base_usage, dtype=np.float64)
        #: (m, h) capacity left to the request; ``limit - usage`` is the
        #: residual the two primitives read.
        self.limit = limit
        #: Group membership index: for each VM, the ids of its groups.
        self.groups_of_vm: list[list[int]] = [
            list(ids) for ids in compiled.member_groups
        ]
        server_datacenter = compiled.infrastructure.server_datacenter
        #: Datacenter of each server, as plain ints.
        self.dc_of: list[int] = server_datacenter.tolist()
        #: (g, m) membership: row d marks the servers of datacenter d.
        self._dc_servers = np.arange(compiled.g)[:, None] == server_datacenter
        self._dc_servers.setflags(write=False)
        # Per-VM capacity bar of the validity test: demand less the
        # float tolerance, the very floats ``demand - 1e-9`` yields.
        self._need = self.request.demand - 1e-9

    # ------------------------------------------------------------------
    def fits(self, residual: FloatArray, vm: int) -> BoolArray:
        """Servers whose ``residual`` row has room for ``vm``'s demand on
        every attribute (to a 1e-9 tolerance), as a new mask.

        ``residual`` is ``self.limit - usage`` for some (m, h) usage;
        each caller keeps its own, one touched row at a time.
        """
        return (residual >= self._need[vm]).all(axis=1)

    def apply_rules(
        self, mask: BoolArray, assignment: IntArray, vm: int
    ) -> BoolArray:
        """AND into ``mask`` (in place) the servers where hosting ``vm``
        breaks none of its groups; returns ``mask``.

        Other members are taken at their *current* positions in
        ``assignment`` (an int array or list); unplaced members impose
        nothing.  This is the constraint-graph view the repair walks,
        one VM at a time.
        """
        for gi in self.groups_of_vm[vm]:
            group = self.request.groups[gi]
            placed = [
                int(assignment[k])
                for k in group.members
                if k != vm and assignment[k] >= 0
            ]
            if not placed:
                continue
            rule = group.rule
            if rule is PlacementRule.SAME_SERVER:
                # Any current member server is progress: joining one
                # strictly reduces the distinct-location count, and the
                # capacity test steers the group toward a member server
                # that actually has room.
                allowed = np.zeros(len(mask), dtype=bool)
                allowed[placed] = True
                mask &= allowed
            elif rule is PlacementRule.SAME_DATACENTER:
                mask &= self._colocated(placed)
            elif rule is PlacementRule.DIFFERENT_SERVERS:
                mask[placed] = False
            elif rule is PlacementRule.DIFFERENT_DATACENTERS:
                mask[self._colocated(placed)] = False
        return mask

    def _colocated(self, servers: list[int]) -> BoolArray:
        """Servers in the datacenter of any of ``servers`` (read-only)."""
        datacenters = iter({self.dc_of[j] for j in servers})
        colocated = self._dc_servers[next(datacenters)]
        for datacenter in datacenters:
            colocated = colocated | self._dc_servers[datacenter]
        return colocated

    # ------------------------------------------------------------------
    def find(
        self,
        residual: FloatArray,
        assignment: IntArray,
        vm: int,
        tabu: TabuList | None = None,
        order: str = "first",
        rng: np.random.Generator | None = None,
    ) -> int | None:
        """The Fig. 6 scan: the first (or best) valid server for ``vm``.

        Parameters
        ----------
        residual, assignment:
            ``self.limit - usage`` for the (m, h) usage of the genome
            ``assignment`` (an int array or list).  Every cell must
            equal that subtraction bitwise; the repair walk maintains
            it move by move.
        order:
            ``"first"`` — lowest server id (the paper's literal loop);
            ``"best_fit"`` — the valid server with the least residual
            headroom after the move (tighter packing);
            ``"random"`` — a uniformly random valid server.

        Returns
        -------
        A server id, or None when no valid allocation exists
        (``findNeighbor`` falls through its loop).
        """
        valid = self.apply_rules(self.fits(residual, vm), assignment, vm)
        current = int(assignment[vm])
        if current >= 0:
            valid[current] = False
        if tabu is not None:
            for server in tabu.forbidden_servers(vm):
                valid[server] = False
        candidates = valid.nonzero()[0]
        if candidates.size == 0:
            return None
        if order == "first":
            return int(candidates[0])
        if order == "best_fit":
            headroom = residual[candidates] - self.request.demand[vm]
            slack = headroom.sum(axis=1)
            return int(candidates[np.argmin(slack)])
        if order == "random":
            gen = rng if rng is not None else np.random.default_rng()
            return int(gen.choice(candidates))
        raise ValidationError(
            f"order must be 'first', 'best_fit' or 'random', got {order!r}"
        )
