"""Byte-identity oracle for the tabu repair walk.

``_ReferenceRepair`` and ``_ReferenceFinder`` keep the walk as it ran
before it moved onto a per-genome delta state (:class:`WalkState`):
``repair_genome``, ``exceedingDetection`` (``_faulty_vms``), the
still-faulty re-check, the round score and ``findNeighbor`` each
recompute their answer from the genome and the usage matrix, and every
row derives its own stream and sets itself up.  The code below is that
walk verbatim.  The fuzz drives it and
:class:`~repro.tabu.repair.TabuRepair` through the same calls and
asserts the same output bytes, counters and generator states after
every call: the delta state and the per-batch set-up may change how
fast the walk runs, never a move it makes or a number it draws.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.engine import CompiledProblem
from repro.errors import ValidationError
from repro.model.placement import UNPLACED
from repro.model.request import PlacementGroup, Request
from repro.tabu.neighborhood import NeighborFinder, TabuList
from repro.tabu.repair import TabuRepair
from repro.telemetry import (
    MetricsRegistry,
    RepairInvoked,
    get_bus,
    get_registry,
    use_registry,
)
from repro.types import BoolArray, FloatArray, IntArray, PlacementRule
from repro.utils.rng import derive_sequence
from repro.utils.scatter import scatter_rows
from repro.workloads.generator import ScenarioGenerator, ScenarioSpec


def _server_usage(capacity, assignment: IntArray) -> FloatArray:
    """The (m, h) usage of one genome, scattered on its own (the
    per-genome scatter the walk used before the batch usage tile)."""
    placed = assignment != UNPLACED
    return scatter_rows(
        assignment[placed], capacity.demand[placed], capacity.limit.shape[0]
    )


class _ReferenceFinder(NeighborFinder):
    """``findNeighbor`` with one m-wide capacity and affinity mask per call."""

    def capacity_mask(
        self, usage: FloatArray, assignment: IntArray, vm: int
    ) -> BoolArray:
        """Servers that can absorb ``vm`` given current ``usage``.

        ``usage`` must reflect ``assignment`` *including* the VM's
        current placement; the VM's own demand is credited back to its
        current host before testing.
        """
        demand = self.request.demand[vm]
        residual = self.limit - usage
        current = int(assignment[vm])
        if current >= 0:
            residual = residual.copy()
            residual[current] += demand
        return np.all(residual >= demand - 1e-9, axis=1)

    def affinity_mask(self, assignment: IntArray, vm: int) -> BoolArray:
        """Servers where hosting ``vm`` violates none of its groups.

        Other members are taken at their *current* positions; the mask
        is therefore the constraint-graph view the repair walks, one VM
        at a time.
        """
        groups = self.groups_of_vm[vm]
        if not groups:
            return self._no_groups_mask
        infra = self.infrastructure
        mask = np.ones(infra.m, dtype=bool)
        dc_of = infra.server_datacenter
        for gi in groups:
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
                # capacity mask steers the group toward a member server
                # that actually has room.
                allowed = np.zeros(infra.m, dtype=bool)
                allowed[placed] = True
                mask &= allowed
            elif rule is PlacementRule.SAME_DATACENTER:
                allowed = np.zeros(infra.g, dtype=bool)
                allowed[dc_of[placed]] = True
                mask &= allowed[dc_of]
            elif rule is PlacementRule.DIFFERENT_SERVERS:
                mask[placed] = False
            elif rule is PlacementRule.DIFFERENT_DATACENTERS:
                used = np.zeros(infra.g, dtype=bool)
                used[dc_of[placed]] = True
                mask &= ~used[dc_of]
        return mask

    # ------------------------------------------------------------------
    def find(
        self,
        usage: FloatArray,
        assignment: IntArray,
        vm: int,
        tabu: TabuList | None = None,
        order: str = "first",
        rng: np.random.Generator | None = None,
    ) -> int | None:
        """The Fig. 6 scan: the first (or best) valid server for ``vm``.

        Parameters
        ----------
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
        valid = self.capacity_mask(usage, assignment, vm)
        valid &= self.affinity_mask(assignment, vm)
        current = int(assignment[vm])
        if current >= 0:
            valid[current] = False
        if tabu is not None:
            for server in tabu.forbidden_servers(vm):
                valid[server] = False
        candidates = np.flatnonzero(valid)
        if candidates.size == 0:
            return None
        if order == "first":
            return int(candidates[0])
        if order == "best_fit":
            demand = self.request.demand[vm]
            headroom = (self.limit - usage)[candidates] - demand
            slack = headroom.sum(axis=1)
            return int(candidates[np.argmin(slack)])
        if order == "random":
            gen = rng if rng is not None else np.random.default_rng()
            return int(gen.choice(candidates))
        raise ValidationError(
            f"order must be 'first', 'best_fit' or 'random', got {order!r}"
        )


class _ReferenceRepair(TabuRepair):
    """The repair walk that rebuilds its state from the genome per call."""

    def __init__(self, infrastructure, request, base_usage=None, **kwargs) -> None:
        super().__init__(infrastructure, request, base_usage=base_usage, **kwargs)
        self.finder = _ReferenceFinder(
            infrastructure, request, base_usage=base_usage, compiled=self.compiled
        )

    def _group_violations(self, assignment: IntArray, group) -> int:
        dc_of = self.infrastructure.server_datacenter
        genes = [int(assignment[k]) for k in group.members if assignment[k] >= 0]
        if len(genes) <= 1:
            return 0
        rule = group.rule
        if rule.value == "same_server":
            return len(set(genes)) - 1
        if rule.value == "same_datacenter":
            return len({int(dc_of[j]) for j in genes}) - 1
        if rule.value == "different_servers":
            return len(genes) - len(set(genes))
        return len(genes) - len({int(dc_of[j]) for j in genes})

    def _overloaded_servers(self, usage: FloatArray) -> IntArray:
        capacity = self.constraints.capacity
        over = usage > capacity.threshold
        return np.flatnonzero(over.any(axis=1)).astype(np.int64)

    def _faulty_vms(self, assignment: IntArray, usage: FloatArray) -> IntArray:
        """VMs that must move: hosted on an overloaded server, or member
        of a violated affinity/anti-affinity group (Fig. 5, line 2).
        Unplaced members are never faulty: they host nothing, and
        :meth:`_group_violations` already ignores them."""
        offenders = self._overloaded_servers(usage)
        faulty = np.zeros(self.request.n, dtype=bool)
        if offenders.size:
            faulty |= np.isin(assignment, offenders)
        for group in self.request.groups:
            if self._group_violations(assignment, group) > 0:
                faulty[list(group.members)] = True
        faulty &= assignment != UNPLACED
        return np.flatnonzero(faulty).astype(np.int64)

    def _still_faulty(
        self, vm: int, assignment: IntArray, usage: FloatArray
    ) -> bool:
        """Re-check one VM against the *current* state: earlier moves in
        the same round may already have fixed its server or group, in
        which case moving it too would overshoot (drain a server that
        now fits, or split a group that just converged)."""
        server = int(assignment[vm])
        capacity = self.constraints.capacity
        if np.any(usage[server] > capacity.threshold[server]):
            return True
        for gi in self.finder.groups_of_vm[vm]:
            if self._group_violations(assignment, self.request.groups[gi]) > 0:
                return True
        return False

    def _score(
        self, assignment: IntArray, usage: FloatArray
    ) -> tuple[int, float]:
        """(violations, usage cost) — the lexicographic ideal-point key."""
        capacity = self.constraints.capacity
        violations = int(np.count_nonzero(usage > capacity.threshold))
        for group in self.request.groups:
            violations += self._group_violations(assignment, group)
        cost = float(self._cost_rate[assignment[assignment >= 0]].sum())
        return violations, cost

    def _least_overflow_move(
        self,
        usage: FloatArray,
        assignment: IntArray,
        vm: int,
        tabu: TabuList,
    ) -> int | None:
        """Worsening-tolerant tabu move: when no strictly valid server
        exists, relocate to the server that adds the least capacity
        overflow, preferring affinity-consistent targets.  This is what
        lets the walk escape local optima instead of stalling, at the
        price of temporarily shifted violations (bounded by the
        best-state tracking in :meth:`repair_genome`)."""
        demand = self.request.demand[vm]
        limit = self.finder.limit
        # Overflow added on each prospective target.
        after = np.maximum(0.0, usage + demand[None, :] - limit)
        before = np.maximum(0.0, usage - limit)
        added = (after - before).sum(axis=1)
        candidates = np.ones(limit.shape[0], dtype=bool)
        candidates[assignment[vm]] = False
        for server in tabu.forbidden_servers(vm):
            candidates[server] = False
        if not candidates.any():
            return None
        affinity_ok = self.finder.affinity_mask(assignment, vm) & candidates
        pool = affinity_ok if affinity_ok.any() else candidates
        idx = np.flatnonzero(pool)
        return int(idx[np.argmin(added[idx])])

    # ------------------------------------------------------------------
    def repair_genome(
        self,
        assignment: IntArray,
        rng=None,
        *,
        usage: FloatArray | None = None,
        known_infeasible: bool = False,
    ) -> IntArray:
        """Repair one genome (Fig. 5).  Returns a new array.

        ``rng`` overrides the repairer's own stream; population repair
        passes a per-individual generator derived from the root seed so
        the walk is a pure function of (seed, batch, row) — identical
        whether this runs in-process or in a pool worker.

        ``usage`` optionally supplies this genome's (m, h) usage matrix
        (one row of the batch tile population repair scores up front);
        it must equal the genome's own scatter bitwise,
        which rows of :meth:`CapacityConstraint.batch_usage` do by the
        kernel conformance contract.  ``known_infeasible`` skips the
        redundant feasibility pre-check for callers that already
        batch-screened the population.
        """
        if rng is None:
            rng = self._rng
        assignment = np.asarray(assignment, dtype=np.int64).copy()
        if not known_infeasible and self.constraints.is_feasible(assignment):
            return assignment

        self.repaired_individuals += 1
        moves_before = self.moves_performed
        tabu = TabuList(tenure=self.tenure)
        if usage is None:
            usage = _server_usage(self.constraints.capacity, assignment)
        else:
            usage = np.array(usage, dtype=np.float64)  # owned, mutated below
        best = assignment.copy()
        best_score = self._score(assignment, usage)
        stall_rounds = 0

        grouped = np.zeros(self.request.n, dtype=bool)
        for group in self.request.groups:
            grouped[list(group.members)] = True

        for _ in range(self.max_rounds):
            if self._deadline_passed():
                break
            faulty = self._faulty_vms(assignment, usage)
            if faulty.size == 0:
                break
            # Shuffle, then visit ungrouped VMs first: moving them never
            # perturbs an affinity rule, so capacity pressure drains off
            # overloaded servers without collateral group damage.
            rng.shuffle(faulty)
            faulty = faulty[np.argsort(grouped[faulty], kind="stable")]
            moved_any = False
            for scanned, vm in enumerate(faulty):
                # The round itself can be long on big instances; re-check
                # the budget every few dozen candidate moves.
                if scanned % 32 == 31 and self._deadline_passed():
                    break
                if not self._still_faulty(int(vm), assignment, usage):
                    continue
                target = self.finder.find(
                    usage,
                    assignment,
                    int(vm),
                    tabu=tabu,
                    order=self.order,
                    rng=rng,
                )
                if target is None:
                    target = self._least_overflow_move(
                        usage, assignment, int(vm), tabu
                    )
                if target is None:
                    continue  # findNeighbor fell through: leave the gene
                old = int(assignment[vm])
                demand = self.request.demand[vm]
                usage[old] -= demand
                usage[target] += demand
                assignment[vm] = target
                tabu.add(int(vm), old)
                self.moves_performed += 1
                moved_any = True
            score = self._score(assignment, usage)
            if score < best_score:
                best_score = score
                best = assignment.copy()
                stall_rounds = 0
            else:
                stall_rounds += 1
            if best_score[0] == 0:
                break
            if not moved_any or stall_rounds >= 3:
                break  # stuck (no move, or three rounds without progress)

        moves = self.moves_performed - moves_before
        registry = get_registry()
        registry.count("tabu.repair.individuals", repairer="tabu")
        registry.count("tabu.repair.moves", moves, repairer="tabu")
        bus = get_bus()
        if bus.enabled:
            bus.emit(
                RepairInvoked(
                    repairer="tabu", moves=moves, repaired=best_score[0] == 0
                )
            )
        return best


# ----------------------------------------------------------------------
# The fuzz
# ----------------------------------------------------------------------
def _instance(seed: int, tightness: float):
    """A generated instance whose merged request carries all four rules
    (one extra three-member group per rule on top of the generated ones)."""
    spec = ScenarioSpec(
        servers=8 + seed,
        datacenters=3,
        vms=18 + 3 * seed,
        max_request_size=5,
        tightness=tightness,
        affinity_probability=1.0,
    )
    scenario = ScenarioGenerator(spec, seed=seed).generate()
    request, _ = Request.concatenate(list(scenario.requests))
    rng = np.random.default_rng(seed)
    extra = tuple(
        PlacementGroup(rule, tuple(rng.choice(request.n, size=3, replace=False).tolist()))
        for rule in PlacementRule
    )
    return scenario.infrastructure, dataclasses.replace(
        request, groups=request.groups + extra
    )


def _cases():
    """(infrastructure, request, base_usage, genomes, seed) per instance:
    both tightnesses, every other instance on committed base usage, and
    every other genome with about a sixth of its genes unplaced."""
    for seed in range(4):
        for tightness in (0.65, 0.95):
            infra, request = _instance(seed, tightness)
            rng = np.random.default_rng(1000 + seed)
            base = None
            if seed % 2:
                base = infra.effective_capacity * rng.uniform(0.0, 0.3, size=(infra.m, infra.h))
            genomes = rng.integers(0, infra.m, size=(8, request.n), dtype=np.int64)
            genomes[::2][rng.random((4, request.n)) < 0.17] = UNPLACED
            yield infra, request, base, genomes, seed


def _reference_batch(reference: _ReferenceRepair, population: IntArray) -> IntArray:
    """The batch path before the shared usage tile: a per-row screen, a
    per-genome scatter, each infeasible row walked on the stream derived
    from (root, batch, row) until the deadline passes."""
    batch_index = reference._batch_counter
    reference._batch_counter += 1
    repaired = population.copy()
    for row, genome in enumerate(population):
        if reference.constraints.is_feasible(genome):
            continue
        if reference._deadline_passed():
            break
        rng = np.random.default_rng(
            derive_sequence(reference._root_seq, batch_index, row)
        )
        repaired[row] = reference.repair_genome(genome, rng=rng, known_infeasible=True)
    return repaired


def _assert_same(got, want, walk: TabuRepair, reference: _ReferenceRepair) -> None:
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert walk.moves_performed == reference.moves_performed
    assert walk.repaired_individuals == reference.repaired_individuals


@pytest.mark.parametrize("max_rounds", [1, 4, 32])
@pytest.mark.parametrize("order", ["first", "best_fit", "random"])
def test_walk_matches_reference_byte_for_byte(order, max_rounds):
    moves = 0
    for infra, request, base, genomes, seed in _cases():
        options = dict(
            base_usage=base,
            max_rounds=max_rounds,
            order=order,
            seed=seed,
            # The allocators hand the repairer their compilation.
            compiled=CompiledProblem.compile(infra, request) if seed >= 2 else None,
        )
        walk = TabuRepair(infra, request, **options)
        reference = _ReferenceRepair(infra, request, **options)

        # 1-D calls on each repairer's own stream.
        for genome in genomes:
            _assert_same(
                walk.repair_genome(genome), reference.repair_genome(genome), walk, reference
            )
            assert walk._rng.bit_generator.state == reference._rng.bit_generator.state

        # Batch calls: the screen, the shared tile and the derived streams.
        for _ in range(2):
            _assert_same(walk(genomes), _reference_batch(reference, genomes), walk, reference)
        assert walk._batch_counter == reference._batch_counter

        # The row loop alone, one row at a time from tile rows: every
        # row is walked (the caller screened), on its derived stream.
        tile = walk.constraints.capacity.batch_usage(genomes)
        for row, genome in enumerate(genomes):
            reference_rng = np.random.default_rng(derive_sequence(walk._root_seq, 99, row))
            got = walk.repair_rows(
                genomes[[row]],
                np.array([row]),
                root=walk._root_seq,
                batch_index=99,
                usage=tile[[row]],
            )
            want = reference.repair_genome(
                genome,
                rng=reference_rng,
                usage=_server_usage(reference.constraints.capacity, genome),
                known_infeasible=True,
            )
            _assert_same(got[0], want, walk, reference)
            assert walk._stream.bit_generator.state == reference_rng.bit_generator.state
        moves += walk.moves_performed
    assert moves > 0  # the fuzz reached real moves, not only early exits


def _deadline_after(repairer: TabuRepair, checks: int) -> None:
    """Let the repairer's deadline pass at its ``checks``-th check (the
    walk and the reference check it at the same points: per row, per
    round and every 32 scanned VMs)."""
    seen = itertools.count(1)
    repairer._deadline_passed = lambda: next(seen) >= checks


@pytest.mark.parametrize("checks", [1, 2, 3, 5, 8, 13, None])
def test_batch_walks_match_reference_up_to_a_deadline(checks):
    """Batches of several infeasible rows, on committed base usage and
    with unplaced genes, walked from one set-up pass: the same bytes,
    walk counters and repair-counter totals as the reference's per-row
    walks, with a deadline that passes mid-batch (only walked rows
    count) or never."""
    cut = 0
    for infra, request, base, genomes, seed in _cases():
        options = dict(
            base_usage=base,
            seed=seed,
            compiled=CompiledProblem.compile(infra, request) if seed % 2 else None,
        )
        walk = TabuRepair(infra, request, **options)
        reference = _ReferenceRepair(infra, request, **options)
        if checks is not None:
            _deadline_after(walk, checks)
            _deadline_after(reference, checks)
        infeasible = int((walk.constraints.batch_violations(genomes) > 0).sum())
        assert infeasible >= 2
        with use_registry(MetricsRegistry()) as walk_registry:
            got = walk(genomes)
        with use_registry(MetricsRegistry()) as reference_registry:
            want = _reference_batch(reference, genomes)
        _assert_same(got, want, walk, reference)
        for name in ("tabu.repair.individuals", "tabu.repair.moves"):
            assert walk_registry.snapshot().counter_total(
                name
            ) == reference_registry.snapshot().counter_total(name)
        assert walk_registry.snapshot().counter_total(
            "tabu.repair.individuals"
        ) == walk.repaired_individuals
        cut += 0 < walk.repaired_individuals < infeasible
        if checks is None:
            assert walk.repaired_individuals == infeasible
    if checks is not None and checks > 1:
        assert cut > 0  # the deadline passed mid-batch


def test_finder_matches_reference():
    """``find`` on the residual and the two masks the greedy baselines
    use agree with the per-call masks."""
    checked = 0
    for infra, request, base, genomes, seed in _cases():
        finder = NeighborFinder(infra, request, base_usage=base)
        reference = _ReferenceFinder(infra, request, base_usage=base)
        capacity = TabuRepair(infra, request, base_usage=base).constraints.capacity
        rng = np.random.default_rng(seed)
        for genome in genomes:
            usage = _server_usage(capacity, genome)
            residual = finder.limit - usage
            tabu = TabuList(tenure=8)
            for vm in np.flatnonzero(genome != UNPLACED)[:10].tolist():
                assert np.array_equal(
                    finder.affinity_mask(genome, vm), reference.affinity_mask(genome, vm)
                )
                assert np.array_equal(
                    finder.capacity_mask(usage, genome, vm),
                    reference.capacity_mask(usage, genome, vm),
                )
                for order in ("first", "best_fit", "random"):
                    draw = int(rng.integers(1 << 30))
                    want = reference.find(
                        usage, genome, vm, tabu=tabu, order=order,
                        rng=np.random.default_rng(draw),
                    )
                    got = finder.find(
                        residual, genome, vm, tabu=tabu, order=order,
                        rng=np.random.default_rng(draw),
                    )
                    assert got == want
                    checked += 1
                tabu.add(vm, int(rng.integers(infra.m)))
    assert checked > 500
