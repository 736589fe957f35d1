"""The tabu-search repair process (the paper's Figures 4-6).

``Repair(I)`` scans an individual for servers whose constraints are
exceeded (``exceedingDetection``) and re-hosts every VM found on an
offending server via ``findNeighbor``.  We extend the scan to the
affinity/anti-affinity groups — the paper checks "each constraint
(capacities constraint, affinity and anti-affinity constraints)" during
evaluation and repairs whatever is invalid.

The repair runs for up to ``max_rounds`` full passes.  Every
intermediate state is scored, and — following the paper's Euclidean
rule ("we choose the solution that is found closer to the ideal point
where cost and rejection rate are the next to naught") — the state
returned is the one minimizing (violations, usage-cost) lexicographic
distance to the ideal: zero violations first, cheapest placement among
equals.
"""

from __future__ import annotations

import time

import numpy as np

from repro.constraints.registry import ConstraintSet
from repro.engine.parallel import RepairParams
from repro.errors import ValidationError
from repro.model.infrastructure import Infrastructure
from repro.model.placement import UNPLACED
from repro.model.request import Request
from repro.tabu.neighborhood import NeighborFinder, TabuList
from repro.telemetry import RepairInvoked, get_bus, get_registry
from repro.types import FloatArray, IntArray
from repro.utils.rng import as_generator, derive_sequence, root_sequence

__all__ = ["TabuRepair"]


class TabuRepair:
    """Callable genome repairer; plugs into
    :class:`~repro.ea.constraint_handling.RepairHandling`.

    Parameters
    ----------
    infrastructure, request:
        The problem instance.
    base_usage:
        Committed usage from earlier windows.
    max_rounds:
        Full repair passes per individual before giving up.
    tenure:
        Tabu-list tenure (forbidden (vm, server) pairs remembered).
    order:
        Neighbour preference passed to :class:`NeighborFinder`.
    seed:
        RNG for the ``"random"`` order and VM scan shuffling.
    compiled:
        Optional :class:`~repro.engine.CompiledProblem` of the same
        instance; when given, the constraint set shares its prebuilt
        group constraints and the finder reuses its compiled indexes —
        one compilation then serves every repair call of a run.
    engine:
        Optional :class:`~repro.engine.parallel.ParallelEngine`.  When
        given (and ``compiled`` is too), population repair fans the
        infeasible rows out across the engine's worker pool.  Results
        are byte-identical to the serial path: each individual's RNG
        stream is derived from ``(seed, batch_index, row)`` whether it
        is repaired in-process or in a worker.
    """

    def __init__(
        self,
        infrastructure: Infrastructure,
        request: Request,
        base_usage: FloatArray | None = None,
        max_rounds: int = 4,
        tenure: int = 64,
        order: str = "first",
        allow_worsening_moves: bool = True,
        seed=None,
        compiled=None,
        engine=None,
    ) -> None:
        if max_rounds < 1:
            raise ValidationError(f"max_rounds must be >= 1, got {max_rounds}")
        self.infrastructure = infrastructure
        self.request = request
        self.compiled = compiled
        if compiled is not None:
            self.constraints = compiled.constraint_set(
                base_usage=base_usage, include_assignment=False
            )
        else:
            self.constraints = ConstraintSet(
                infrastructure, request, base_usage=base_usage, include_assignment=False
            )
        self.finder = NeighborFinder(
            infrastructure, request, base_usage=base_usage, compiled=compiled
        )
        self.max_rounds = int(max_rounds)
        self.tenure = int(tenure)
        self.order = order
        self.allow_worsening_moves = bool(allow_worsening_moves)
        self.engine = engine
        self._base_usage = base_usage
        self._rng = as_generator(seed)
        # Per-individual streams are addressed by (batch, row) under this
        # root — the determinism contract the parallel fan-out relies on.
        self._root_seq = root_sequence(seed)
        self._batch_counter = 0
        # E + U per server: the cheap cost proxy for ideal-point scoring.
        self._cost_rate = (
            compiled.per_resource_rate
            if compiled is not None
            else infrastructure.operating_cost + infrastructure.usage_cost
        )
        self.repaired_individuals = 0
        self.moves_performed = 0
        #: Optional wall-clock cutoff (``time.perf_counter`` stamp) set
        #: by the EA loop when its config carries a ``time_limit``; the
        #: repair rounds and the per-population row loop both stop once
        #: it has passed, so one pathological repair cannot blow through
        #: the run's budget.  NOTE: a deadline makes results timing-
        #: dependent — runs relying on byte-identical determinism
        #: (parallel/resume verification) leave ``time_limit`` unset.
        self.deadline: float | None = None

    # ------------------------------------------------------------------
    # Runtime hooks used by the EA loop (deadline propagation) and the
    # checkpoint subsystem (trajectory state across kill/resume).
    # ------------------------------------------------------------------
    def set_deadline(self, deadline: float | None) -> None:
        """Bound all subsequent repair work by a ``perf_counter`` stamp."""
        self.deadline = None if deadline is None else float(deadline)

    def _deadline_passed(self) -> bool:
        return self.deadline is not None and time.perf_counter() >= self.deadline

    def runtime_state(self) -> dict:
        """Checkpoint payload: the RNG batch counter plus run counters.

        ``batch_counter`` addresses the per-individual RNG streams of
        population repair — restoring it is what keeps a resumed run on
        the exact random trajectory of the uninterrupted one.
        """
        return {
            "batch_counter": int(self._batch_counter),
            "repaired_individuals": int(self.repaired_individuals),
            "moves_performed": int(self.moves_performed),
        }

    def restore_runtime_state(self, state: dict) -> None:
        """Inverse of :meth:`runtime_state` (resume path)."""
        self._batch_counter = int(state["batch_counter"])
        self.repaired_individuals = int(state.get("repaired_individuals", 0))
        self.moves_performed = int(state.get("moves_performed", 0))

    # ------------------------------------------------------------------
    # Fast fault/score paths.  These reuse the usage matrix the repair
    # loop maintains incrementally, and use Python sets for the tiny
    # member-server collections (np.unique on 2-8 element arrays is the
    # profiler-measured bottleneck otherwise).
    # ------------------------------------------------------------------
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
        over = usage > capacity._threshold
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
        if np.any(usage[server] > capacity._threshold[server]):
            return True
        for gi in self.finder._groups_of_vm[vm]:
            if self._group_violations(assignment, self.request.groups[gi]) > 0:
                return True
        return False

    def _score(
        self, assignment: IntArray, usage: FloatArray
    ) -> tuple[int, float]:
        """(violations, usage cost) — the lexicographic ideal-point key."""
        capacity = self.constraints.capacity
        violations = int(np.count_nonzero(usage > capacity._threshold))
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
        it must equal ``capacity.server_usage(assignment)`` bitwise,
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
            usage = self.constraints.capacity.server_usage(assignment)
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
                if target is None and self.allow_worsening_moves:
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

    # ------------------------------------------------------------------
    def __call__(self, population: IntArray) -> IntArray:
        """Repair a whole population matrix (infeasible rows only).

        Each batch call advances ``_batch_counter`` — the "generation"
        coordinate of the per-individual RNG streams.  The call order
        of population repairs within a run is fixed (init, parents,
        offspring per generation), so the counter is identical across
        serial and parallel executions of the same seed.
        """
        population = np.asarray(population, dtype=np.int64)
        if population.ndim == 1:
            return self.repair_genome(population)
        batch_index = self._batch_counter
        self._batch_counter += 1
        feasible = self.constraints.batch_feasible(population)
        if feasible.all():
            return population
        rows = np.flatnonzero(~feasible)
        repaired = population.copy()

        engine = self.engine
        if (
            engine is not None
            and engine.available
            and self.compiled is not None
            and rows.size >= engine.min_dispatch_rows
            and not self._deadline_passed()
        ):
            fanned = engine.repair_rows(
                self.compiled,
                RepairParams(
                    max_rounds=self.max_rounds,
                    tenure=self.tenure,
                    order=self.order,
                    allow_worsening_moves=self.allow_worsening_moves,
                ),
                population[rows],
                rows,
                root=self._root_seq,
                batch_index=batch_index,
                base_usage=self._base_usage,
            )
            if fanned is not None:
                repaired[rows] = fanned
                return repaired
            # Engine degraded: fall through to the serial loop, which
            # derives the very same per-row streams — same bytes out.

        tile = self._usage_tile(population, rows)
        for local, i in enumerate(rows):
            if self._deadline_passed():
                break  # remaining rows pass through unrepaired
            rng = np.random.default_rng(
                derive_sequence(self._root_seq, batch_index, int(i))
            )
            repaired[i] = self.repair_genome(
                population[i],
                rng=rng,
                usage=None if tile is None else tile[local],
                known_infeasible=True,
            )
        return repaired

    def _usage_tile(
        self, population: IntArray, rows: IntArray
    ) -> FloatArray | None:
        """Score the whole infeasible batch's usage as one kernel tile.

        Rows of the tile are bitwise-equal to per-genome
        ``server_usage`` scatters (kernel conformance contract), so
        handing ``tile[local]`` to :meth:`repair_genome` changes no
        result — it only replaces ``rows`` individual scatter-adds
        with one vectorized pass.  Falls back to per-row scatters when
        the tile would be unreasonably large.
        """
        if rows.size == 0 or self._deadline_passed():
            return None
        capacity = self.constraints.capacity
        m, h = capacity.limit.shape
        if rows.size * m * h > 8_000_000:  # ~64 MB of float64: not worth it
            return None
        tile = capacity.batch_usage(population[rows])
        registry = get_registry()
        registry.count("engine.kernel.repair_tiles")
        registry.count("engine.kernel.repair_tile_rows", int(rows.size))
        return tile
