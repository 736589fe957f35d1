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

The walk runs on one :class:`WalkState` per genome: usage, residual
headroom, per-server overflow counts and per-group violation counts,
each updated per move in O(h + members of the VM's groups), so no
step recomputes from the genome what the previous move already knew.
The states of a batch start from one set-up pass
(:meth:`WalkState.batch`), so no row pays its own set-up either.
"""

from __future__ import annotations

import time

import numpy as np

from repro.constraints.groups import group_violations
from repro.constraints.registry import ConstraintSet
from repro.engine.compiled import CompiledProblem
from repro.engine.incremental import over_count
from repro.errors import ValidationError
from repro.model.infrastructure import Infrastructure
from repro.model.placement import UNPLACED
from repro.model.request import Request
from repro.tabu.neighborhood import NeighborFinder, TabuList
from repro.telemetry import RepairInvoked, get_bus, get_registry
from repro.types import FloatArray, IntArray
from repro.utils.rng import as_generator, install_stream, root_sequence

__all__ = ["TabuRepair"]


class _WalkTables:
    """What every walk of one repairer reads and none changes.

    ``limit`` and ``threshold`` are the (m, h) capacity left after the
    committed usage and its overflow threshold; the ``*_rows`` lists
    hold the same floats row by row for the scalar per-move updates.
    ``members`` concatenates the groups' members and ``segments``
    names each entry's group; ``grouped`` marks the VMs in any group.
    """

    __slots__ = (
        "limit",
        "limit_rows",
        "threshold",
        "threshold_rows",
        "demand_rows",
        "groups",
        "groups_of_vm",
        "dc_of",
        "members",
        "segments",
        "grouped",
    )

    def __init__(
        self,
        limit: FloatArray,
        threshold: FloatArray,
        request: Request,
        groups_of_vm: list[list[int]],
        dc_of: list[int],
    ) -> None:
        self.limit = limit
        self.limit_rows = limit.tolist()
        self.threshold = threshold
        self.threshold_rows = threshold.tolist()
        self.demand_rows = request.demand.tolist()
        self.groups = [(group.rule, list(group.members)) for group in request.groups]
        self.groups_of_vm = groups_of_vm
        self.dc_of = dc_of
        self.members = np.array(
            [vm for _, members in self.groups for vm in members], dtype=np.int64
        )
        self.segments = np.repeat(
            np.arange(len(self.groups)), [len(members) for _, members in self.groups]
        )
        grouped = np.zeros(request.n, dtype=bool)
        grouped[self.members] = True
        self.grouped = grouped.tolist()

    def faulty_lists(
        self, over: IntArray, group_viol: IntArray, genomes: IntArray
    ) -> list[IntArray]:
        """exceedingDetection (Fig. 5, line 2) for a batch of walks.

        ``over`` (rows, m) holds each row's over-threshold cells per
        server, ``group_viol`` (rows, G) its violations per group and
        ``genomes`` (rows, n) its genes.  Per row: the VMs hosted on an
        overloaded server or member of a violated group, as ascending
        int64 ids.  Unplaced genes are never faulty: they host nothing,
        and the group counts already ignore them.
        """
        # An UNPLACED gene reads server m-1 here; the last mask drops it.
        faulty = (over > 0)[np.arange(len(genomes))[:, None], genomes]
        rows, entries = (group_viol > 0)[:, self.segments].nonzero()
        faulty[rows, self.members[entries]] = True
        faulty &= genomes != UNPLACED
        return [row.nonzero()[0] for row in faulty]


class WalkState:
    """Everything the repair walk knows about one genome, kept per move.

    ``assignment`` (the walk's genome array) and ``genes`` (the same
    genes as ints) change in place as VMs move.  ``usage`` is the
    walk's own (m, h) usage: a move takes the VM's demand off the row
    it leaves and adds it to its target's, in scalar floats but with
    the same IEEE subtraction and addition a vectorized row update
    performs, so the floats are the walk's, not a fresh scatter's.
    Derived from them, and refreshed for the two touched servers only:

    * ``residual`` — the (m, h) array ``limit - usage`` that
      :meth:`NeighborFinder.find` reads; a touched row is recomputed as
      ``limit[j] - usage[j]``, so every cell equals the full
      subtraction bitwise;
    * ``over`` — per server, the cells above the capacity threshold
      (``cap_total`` sums them): the overloaded set and the capacity
      part of the round score;
    * ``group_viol`` — per placement group, its violation count
      (``group_total`` sums them), recounted for the moved VM's groups.

    :meth:`batch` builds the states of a batch; each views its row of
    the batch's arrays.
    """

    __slots__ = (
        "tables",
        "assignment",
        "genes",
        "usage",
        "residual",
        "over",
        "cap_total",
        "group_viol",
        "group_total",
        "first_faulty",
    )

    def __init__(
        self,
        tables: _WalkTables,
        assignment: IntArray,
        genes: list[int],
        usage: FloatArray,
        residual: FloatArray,
        over: list[int],
        group_viol: list[int],
        first_faulty: IntArray,
    ) -> None:
        self.tables = tables
        self.assignment = assignment
        self.genes = genes
        self.usage = usage
        self.residual = residual
        self.over = over
        self.cap_total = sum(over)
        self.group_viol = group_viol
        self.group_total = sum(group_viol)
        self.first_faulty: IntArray | None = first_faulty

    @classmethod
    def batch(
        cls,
        tables: _WalkTables,
        genomes: IntArray,
        usage: FloatArray,
        group_viol: IntArray,
    ) -> list["WalkState"]:
        """The states of a batch of walks, from one set-up pass.

        ``genomes`` (rows, n) and ``usage`` (rows, m, h) become the
        walks' own: each state moves VMs in its row of them.
        ``group_viol`` is the rows' (rows, G) violation matrix
        (:meth:`~repro.constraints.registry.ConstraintSet.batch_group_violations`).
        One subtraction gives the residuals, one compare the
        over-threshold counts and one :meth:`_WalkTables.faulty_lists` call
        every row's first faulty list.
        """
        residual = tables.limit - usage
        over = np.count_nonzero(usage > tables.threshold, axis=2)
        per_row = zip(
            genomes.tolist(),
            over.tolist(),
            group_viol.tolist(),
            tables.faulty_lists(over, group_viol, genomes),
        )
        return [
            cls(tables, genomes[row], genes, usage[row], residual[row], over_row, viol, first)
            for row, (genes, over_row, viol, first) in enumerate(per_row)
        ]

    @property
    def violations(self) -> int:
        """Overloaded cells plus group violations (the round score)."""
        return self.cap_total + self.group_total

    def faulty_vms(self) -> IntArray:
        """VMs that must move (Fig. 5, line 2), as ascending int64 ids.

        The first call returns the list the batch set-up found; a later
        one asks :meth:`_WalkTables.faulty_lists` about the current state.
        """
        faulty = self.first_faulty
        if faulty is None:
            return self.tables.faulty_lists(
                np.array([self.over]),
                np.array([self.group_viol], dtype=np.int64),
                self.assignment[None],
            )[0]
        self.first_faulty = None
        return faulty

    def still_faulty(self, vm: int) -> bool:
        """Re-check one VM against the *current* state: earlier moves in
        the same round may already have fixed its server or group, in
        which case moving it too would overshoot (drain a server that
        now fits, or split a group that just converged)."""
        if self.over[self.genes[vm]]:
            return True
        group_viol = self.group_viol
        return any(group_viol[gi] for gi in self.tables.groups_of_vm[vm])

    def move(self, vm: int, target: int) -> int:
        """Relocate ``vm`` to ``target``; returns the server it left."""
        tables = self.tables
        old = self.genes[vm]
        demand = tables.demand_rows[vm]
        usage = self.usage
        self._set_row(old, [u - d for u, d in zip(usage[old].tolist(), demand)])
        self._set_row(target, [u + d for u, d in zip(usage[target].tolist(), demand)])
        self.assignment[vm] = target
        genes = self.genes
        genes[vm] = target
        for gi in tables.groups_of_vm[vm]:
            rule, members = tables.groups[gi]
            count = group_violations(rule, [genes[k] for k in members], tables.dc_of)
            self.group_total += count - self.group_viol[gi]
            self.group_viol[gi] = count
        return old

    def _set_row(self, server: int, row: list[float]) -> None:
        """Install one server's new usage row and what derives from it."""
        tables = self.tables
        self.usage[server] = row
        self.residual[server] = [
            cap - used for cap, used in zip(tables.limit_rows[server], row)
        ]
        count = over_count(row, tables.threshold_rows[server])
        self.cap_total += count - self.over[server]
        self.over[server] = count


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
        given, population repair fans the infeasible rows out across
        the engine's worker pool, which receives this repairer pickled
        (:meth:`__reduce__`).  Results are byte-identical to the serial
        path: each individual's RNG stream is derived from ``(seed,
        batch_index, row)`` whether it is repaired in-process or in a
        worker.

    A walk that finds no strictly valid server for a faulty VM falls
    back to the least-overflow move (:meth:`_least_overflow_move`).
    """

    def __init__(
        self,
        infrastructure: Infrastructure,
        request: Request,
        base_usage: FloatArray | None = None,
        max_rounds: int = 4,
        tenure: int = 64,
        order: str = "first",
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
        self.engine = engine
        self.base_usage = base_usage
        self._rng = as_generator(seed)
        # Per-individual streams are addressed by (batch, row) under this
        # root — the determinism contract the parallel fan-out relies on.
        # Each row's starting state is installed in this one generator.
        self._root_seq = root_sequence(seed)
        self._stream = np.random.default_rng(0)
        self._batch_counter = 0
        # E + U per server: the cheap cost proxy for ideal-point scoring.
        self._cost_rate = (
            compiled.per_resource_rate
            if compiled is not None
            else infrastructure.operating_cost + infrastructure.usage_cost
        )
        # The walk's static tables depend only on the request and the
        # committed usage, so they are built once.
        self._tables = _WalkTables(
            self.finder.limit,
            self.constraints.capacity.threshold,
            request,
            self.finder.groups_of_vm,
            self.finder.dc_of,
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

    def __reduce__(self):
        """Pickle as the recipe of a fresh copy: the instance, the
        committed usage and the three repair settings — no compilation,
        engine, stream or counters.  The copy compiles the instance
        itself; the parallel engine's workers repair with it."""
        return _rebuild, (
            self.infrastructure,
            self.request,
            self.base_usage,
            self.max_rounds,
            self.tenure,
            self.order,
        )

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
    def _usage_cost(self, assignment: IntArray) -> float:
        """Usage cost of a genome: the ideal-point tie-break."""
        return float(self._cost_rate[assignment[assignment >= 0]].sum())

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
    def _start_walks(
        self, genomes: IntArray, usage: FloatArray | None = None
    ) -> list[WalkState]:
        """The walk states of ``genomes`` (rows, n), from one set-up pass
        (:meth:`WalkState.batch`).  ``usage`` is their (rows, m, h)
        usage tile, which the walks take over; it is scored here when
        absent."""
        genomes = np.array(genomes, dtype=np.int64)  # the walks' own genes
        if usage is None:
            usage = self.constraints.capacity.batch_usage(genomes)
        return WalkState.batch(
            self._tables,
            genomes,
            usage,
            self.constraints.batch_group_violations(genomes),
        )

    @staticmethod
    def _count_repairs(walked: int, moves: int) -> None:
        """The repair counters, once per set-up with its walks' totals."""
        if walked:
            registry = get_registry()
            registry.count("tabu.repair.individuals", walked, repairer="tabu")
            registry.count("tabu.repair.moves", moves, repairer="tabu")

    def repair_genome(
        self, assignment: IntArray, rng=None, *, walk: WalkState | None = None
    ) -> IntArray:
        """Repair one genome (Fig. 5).  Returns a new array.

        ``rng`` overrides the repairer's own stream; population repair
        passes each row's derived stream so the walk is a pure function
        of (seed, batch, row) — identical whether this runs in-process
        or in a pool worker.

        ``walk`` is the genome's state from the set-up of
        :meth:`repair_rows`, which screened the batch and counts its
        walks.  Without it, a feasible genome comes back as a copy and
        an infeasible one is walked from a set-up of a batch of one.
        """
        if rng is None:
            rng = self._rng
        if walk is not None:
            return self._walk(walk, rng)
        assignment = np.asarray(assignment, dtype=np.int64)
        if self.constraints.is_feasible(assignment):
            return assignment.copy()
        moves_before = self.moves_performed
        [walk] = self._start_walks(assignment[None])
        best = self._walk(walk, rng)
        self._count_repairs(1, self.moves_performed - moves_before)
        return best

    def _walk(self, state: WalkState, rng: np.random.Generator) -> IntArray:
        """The rounds of Fig. 5 on ``state``; returns the best genome."""
        self.repaired_individuals += 1
        moves_before = self.moves_performed
        tabu = TabuList(tenure=self.tenure)
        assignment = state.assignment
        grouped = self._tables.grouped
        best = assignment.copy()
        best_violations = state.violations
        best_cost = None  # priced only when a later round ties it
        stall_rounds = 0

        for _ in range(self.max_rounds):
            if self._deadline_passed():
                break
            faulty = state.faulty_vms()
            if faulty.size == 0:
                break
            # Shuffle, then visit ungrouped VMs first (a stable
            # partition): moving them never perturbs an affinity rule, so
            # capacity pressure drains off overloaded servers without
            # collateral group damage.
            rng.shuffle(faulty)
            shuffled = faulty.tolist()
            order = [vm for vm in shuffled if not grouped[vm]]
            order += [vm for vm in shuffled if grouped[vm]]
            moved_any = False
            for scanned, vm in enumerate(order):
                # The round itself can be long on big instances; re-check
                # the budget every few dozen candidate moves.
                if scanned % 32 == 31 and self._deadline_passed():
                    break
                if not state.still_faulty(vm):
                    continue
                target = self.finder.find(
                    state.residual,
                    state.genes,
                    vm,
                    tabu=tabu,
                    order=self.order,
                    rng=rng,
                )
                if target is None:
                    target = self._least_overflow_move(state.usage, assignment, vm, tabu)
                if target is None:
                    continue  # findNeighbor fell through: leave the gene
                tabu.add(vm, state.move(vm, target))
                self.moves_performed += 1
                moved_any = True
            # The lexicographic (violations, usage cost) comparison; the
            # cost only decides a tie, so it is priced only then.
            violations = state.violations
            cost = None
            if violations == best_violations:
                if best_cost is None:
                    best_cost = self._usage_cost(best)
                cost = self._usage_cost(assignment)
                improved = cost < best_cost
            else:
                improved = violations < best_violations
            if improved:
                best_violations, best_cost = violations, cost
                best = assignment.copy()
                stall_rounds = 0
            else:
                stall_rounds += 1
            if best_violations == 0:
                break
            if not moved_any or stall_rounds >= 3:
                break  # stuck (no move, or three rounds without progress)

        bus = get_bus()
        if bus.enabled:
            bus.emit(
                RepairInvoked(
                    repairer="tabu",
                    moves=self.moves_performed - moves_before,
                    repaired=best_violations == 0,
                )
            )
        return best

    def repair_rows(
        self,
        genomes: IntArray,
        rows: IntArray,
        *,
        root: np.random.SeedSequence,
        batch_index: int,
        usage: FloatArray | None = None,
    ) -> IntArray:
        """Repair batch-screened infeasible genomes, one stream per row.

        ``genomes[local]`` is row ``rows[local]`` of population batch
        ``batch_index``; its walk draws from the stream of ``(root,
        batch_index, rows[local])`` (:func:`~repro.utils.rng.install_stream`
        puts it in the repairer's one stream generator), so the serial
        loop and a pool worker produce the same bytes.  ``usage`` is the
        genomes' (rows, m, h) usage tile, which the walks take over; a
        worker's chunk is scored here.  The walks start from one set-up
        pass, and the repair counters count the walked rows once.  Once
        the deadline has passed, the remaining rows come back unrepaired.
        """
        walks = self._start_walks(genomes, usage)
        repaired = genomes.copy()
        stream = self._stream
        moves_before = self.moves_performed
        walked = 0
        for local, row in enumerate(np.asarray(rows).tolist()):
            if self._deadline_passed():
                break
            install_stream(stream, root, batch_index, row)
            repaired[local] = self.repair_genome(genomes[local], stream, walk=walks[local])
            walked += 1
        self._count_repairs(walked, self.moves_performed - moves_before)
        return repaired

    # ------------------------------------------------------------------
    def __call__(self, population: IntArray) -> IntArray:
        """Repair a whole population matrix (infeasible rows only).

        Each batch call advances ``_batch_counter`` — the "generation"
        coordinate of the per-individual RNG streams.  The call order
        of population repairs within a run is fixed (init, parents,
        offspring per generation), so the counter is identical across
        serial and parallel executions of the same seed.  The batch's
        usage tile is scored once: it screens feasibility and its
        infeasible rows start the walks.
        """
        population = np.asarray(population, dtype=np.int64)
        if population.ndim == 1:
            return self.repair_genome(population)
        batch_index = self._batch_counter
        self._batch_counter += 1
        usage = self.constraints.capacity.batch_usage(population)
        feasible = self.constraints.batch_violations(population, usage=usage) == 0
        if feasible.all():
            return population
        rows = np.flatnonzero(~feasible)
        # The infeasible rows of the tile, a copy the walks take over;
        # the population tile is not kept alive beside it.
        usage = usage[rows]
        repaired = population.copy()

        if self.engine is not None and not self._deadline_passed():
            fanned = self.engine.repair_rows(
                self,
                population[rows],
                rows,
                root=self._root_seq,
                batch_index=batch_index,
            )
            if fanned is not None:
                repaired[rows] = fanned
                return repaired
            # Too few rows, or the engine degraded: fall through to the
            # serial loop, which derives the very same per-row streams —
            # same bytes out.

        repaired[rows] = self.repair_rows(
            population[rows],
            rows,
            root=self._root_seq,
            batch_index=batch_index,
            usage=usage,
        )
        return repaired


def _rebuild(
    infrastructure: Infrastructure,
    request: Request,
    base_usage: FloatArray | None,
    max_rounds: int,
    tenure: int,
    order: str,
) -> TabuRepair:
    """Unpickle a :class:`TabuRepair` (see :meth:`TabuRepair.__reduce__`)."""
    return TabuRepair(
        infrastructure,
        request,
        base_usage=base_usage,
        max_rounds=max_rounds,
        tenure=tenure,
        order=order,
        compiled=CompiledProblem(infrastructure, request),
    )
