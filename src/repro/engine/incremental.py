"""IncrementalEvaluator: O(attributes + groups-of-vm) move scoring.

The tabu layers score a single-VM relocation by re-evaluating the whole
genome — O(n·m·h) per candidate move.  But a relocation only touches
two servers, the groups the VM belongs to, and the VM's own cost terms;
everything else is unchanged.  This evaluator keeps the usage tensor,
the per-constraint violation state and the three objective components
for a *current* assignment, and exposes

* :meth:`score_move` — what (violations, objectives) *would* become if
  ``vm`` moved to ``server``, without mutating anything;
* :meth:`apply_move` — commit the move and update the state in place;
* :meth:`component_totals` — the tracked per-term totals, which
  :func:`repro.verify.check_parity` compares with the state's own
  :class:`~repro.objectives.evaluator.PopulationEvaluator`.

The per-move cost is O(h + groups-containing-vm + residents of the two
touched servers): the capacity/knee checks are per-attribute on two
server rows, the group recounts walk only the VM's own groups, and the
downtime term re-prices only the tenants sharing a touched server.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.constraints.groups import group_violations
from repro.errors import ValidationError
from repro.model.placement import UNPLACED
from repro.objectives.aggregate import aggregate_scalar
from repro.objectives.evaluator import PopulationEvaluator
from repro.objectives.qos import loads_from_usage, qos_from_load
from repro.telemetry import get_registry
from repro.types import FloatArray, IntArray
from repro.utils.scatter import scatter_rows, scatter_values

__all__ = [
    "CONSTRAINT_TERMS",
    "OBJECTIVE_TERMS",
    "IncrementalEvaluator",
    "MoveScore",
    "over_count",
]

#: Constraint terms tracked by the incremental state, in report order.
CONSTRAINT_TERMS = ("capacity", "group", "load_cap", "unplaced")
#: Objective terms in canonical OBJECTIVE_ORDER naming.
OBJECTIVE_TERMS = ("usage_cost", "downtime", "migration")


def over_count(row: list[float], thresholds: list[float]) -> int:
    """Cells of one server row above their thresholds.

    The scalar twin of ``np.count_nonzero(usage > threshold, axis=1)``
    for one row: the same float comparisons, minus numpy's per-call
    dispatch, which dominates on length-h rows.
    """
    return sum(value > limit for value, limit in zip(row, thresholds))


@dataclass(frozen=True)
class MoveScore:
    """Post-move totals of one (candidate or applied) relocation."""

    vm: int
    server: int
    old_server: int
    violations: int
    objectives: FloatArray  # (3,) in canonical objective order

    def aggregate(self, weights: FloatArray | None = None) -> float:
        """The scalar Z the move would yield (Eq. 15)."""
        return float(aggregate_scalar(self.objectives, weights))


class _Delta:
    """Internal scratch: everything a move changes, precomputed once so
    score and apply share one code path."""

    __slots__ = (
        "old",
        "new",
        "rows",
        "over",
        "knee",
        "group_viol",
        "cap_total",
        "knee_total",
        "group_total",
        "unplaced",
        "usage_cost",
        "operating_active",
        "server_penalty",
        "downtime_total",
        "migration_total",
        "server_energy",
        "energy_total",
    )


class IncrementalEvaluator:
    """Delta evaluation of single-VM relocations for one instance.

    Parameters
    ----------
    compiled:
        The instance compilation (static facts).
    evaluator:
        The :class:`~repro.objectives.evaluator.PopulationEvaluator`
        whose totals the state tracks.  Every evaluation setting is
        read from it — committed usage, previous assignment, downtime
        mode, per-server operating cost, assignment constraint, strict
        load cap, energy weight — along with its constraint set's
        overflow thresholds and its energy term's price vectors, so
        :func:`repro.verify.check_parity` compares the state with
        ``evaluator`` itself.
    assignment:
        Starting genome; :data:`UNPLACED` genes are allowed.
    """

    def __init__(
        self, compiled, evaluator: PopulationEvaluator, assignment: IntArray
    ) -> None:
        self.compiled = compiled
        self.evaluator = evaluator
        constraints = evaluator.constraints
        self._literal = evaluator.downtime.mode == "literal"
        self._per_server = evaluator.usage_cost.per_server_operating
        self._count_unplaced = constraints.assignment is not None
        self._strict = constraints.load_cap is not None
        self._energy = evaluator.energy
        self._energy_weight = evaluator.energy_weight
        self._base = evaluator.downtime.base_usage
        self._previous = evaluator.migration.previous_assignment
        self._threshold = constraints.capacity.threshold
        self._knee_threshold = (
            constraints.load_cap.threshold if self._strict else None
        )

        # Scalar fast-path tables: per-move work touches length-h rows,
        # where Python float arithmetic beats numpy's per-call dispatch
        # by an order of magnitude.  The thresholds are the constraint
        # set's own floats, so the comparisons — and therefore the
        # violation counts — stay bit-exact.
        infra = compiled.infrastructure
        self._lps_list = self._threshold.tolist()
        self._kps_list = self._knee_threshold.tolist() if self._strict else None
        self._cap_list = np.asarray(infra.capacity, dtype=np.float64).tolist()
        self._ml_list = np.asarray(infra.max_load, dtype=np.float64).tolist()
        self._mq_list = np.asarray(infra.max_qos, dtype=np.float64).tolist()
        self._base_list = self._base.tolist()
        self._cq_list = np.asarray(
            compiled.qos_guarantee, dtype=np.float64
        ).tolist()
        self._dc_list = np.asarray(compiled.server_datacenter).tolist()
        self._cu_list = np.asarray(
            compiled.downtime_charge, dtype=np.float64
        ).tolist()
        if self._energy is not None:
            self._invcap_list = self._energy.inv_capacity.tolist()
            self._idle_list = self._energy.idle_power.tolist()
            self._dyn_list = self._energy.dynamic_power.tolist()

        # Move-scoring telemetry is batched locally (the registry lock
        # would dominate the µs-scale hot path) — see flush_telemetry().
        self._scored_moves = 0
        self._applied_moves = 0

        self.reset(assignment)

    # ------------------------------------------------------------------
    # From-scratch state construction
    # ------------------------------------------------------------------
    def reset(self, assignment: IntArray) -> None:
        """Re-anchor the incremental state on ``assignment``."""
        compiled = self.compiled
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.shape != (compiled.n,):
            raise ValidationError(
                f"assignment shape {assignment.shape}, expected ({compiled.n},)"
            )
        self.assignment = assignment.copy()
        m = compiled.m
        mask = self.assignment != UNPLACED
        placed = self.assignment[mask]

        self._usage = scatter_rows(placed, compiled.demand[mask], m)
        self._over = np.count_nonzero(
            self._usage > self._threshold, axis=1
        ).astype(np.int64)
        self._cap_total = int(self._over.sum())
        if self._strict:
            self._knee_over = np.count_nonzero(
                self._usage > self._knee_threshold, axis=1
            ).astype(np.int64)
            self._knee_total = int(self._knee_over.sum())
        else:
            self._knee_over = None
            self._knee_total = 0

        self._group_viol = np.array(
            [
                group_violations(rule, self.assignment[members].tolist(), self._dc_list)
                for rule, members in zip(compiled.group_rules, compiled.group_members)
            ],
            dtype=np.int64,
        )
        self._group_total = int(self._group_viol.sum())
        self._unplaced = int(np.count_nonzero(~mask))

        self._residents: list[set[int]] = [set() for _ in range(m)]
        for vm in np.flatnonzero(mask):
            self._residents[int(self.assignment[vm])].add(int(vm))

        # Downtime: price every server once, vectorized.
        server_q = self._min_qos(self._usage)  # (m,)
        if placed.size:
            pen = self._penalties(server_q[placed], np.flatnonzero(mask))
            self._server_penalty = scatter_values(placed, pen, m)
        else:
            self._server_penalty = np.zeros(m)
        self._downtime_total = float(self._server_penalty.sum())

        # Usage/operating cost.
        if self._per_server:
            usage_part = float(compiled.usage_cost[placed].sum())
            active = np.unique(placed)
            operating = float(compiled.operating_cost[active].sum())
            self._usage_cost_total = usage_part + operating
        else:
            self._usage_cost_total = float(
                compiled.per_resource_rate[placed].sum()
            )

        # Migration.
        if self._previous is None:
            self._migration_total = 0.0
        else:
            prev = self._previous
            moved = (self.assignment != prev) & (prev != UNPLACED)
            self._migration_total = float(compiled.migration_charge[moved].sum())

        # Energy (optional): price every active server once, vectorized.
        energy = self._energy
        if energy is not None:
            active = np.zeros(m, dtype=bool)
            active[placed] = True
            load = ((self._usage + self._base) * energy.inv_capacity).mean(axis=1)
            self._server_energy = np.where(
                active,
                energy.idle_power + energy.dynamic_power * load,
                0.0,
            )
            self._energy_total = float(self._server_energy.sum())
        else:
            self._server_energy = None
            self._energy_total = 0.0

    # ------------------------------------------------------------------
    # Current totals
    # ------------------------------------------------------------------
    @property
    def violations(self) -> int:
        """Total constraint violations of the current assignment."""
        total = self._cap_total + self._group_total + self._knee_total
        if self._count_unplaced:
            total += self._unplaced
        return int(total)

    @property
    def objectives(self) -> FloatArray:
        """(3,) objective vector of the current assignment."""
        provider = self._usage_cost_total
        if self._energy is not None:
            provider += self._energy_weight * self._energy_total
        return np.array(
            [provider, self._downtime_total, self._migration_total]
        )

    def aggregate(self, weights: FloatArray | None = None) -> float:
        """The scalar Z of the current assignment (Eq. 15)."""
        return float(aggregate_scalar(self.objectives, weights))

    # ------------------------------------------------------------------
    # Pieces
    # ------------------------------------------------------------------
    def _min_qos(self, usage: FloatArray) -> FloatArray:
        """Worst-attribute QoS per server for a (m, h) usage array."""
        infra = self.compiled.infrastructure
        load = loads_from_usage(usage + self._base, infra.capacity)
        return qos_from_load(load, infra.max_load, infra.max_qos).min(axis=-1)

    def _min_qos_row(self, server: int, row_list: list[float]) -> float:
        """Scalar Eq. 24/25 over one length-h row — same float ops as
        :func:`loads_from_usage` / :func:`qos_from_load`, minus the
        per-call numpy dispatch that dominates the hot path."""
        cap = self._cap_list[server]
        ml = self._ml_list[server]
        mq = self._mq_list[server]
        base = self._base_list[server]
        best = math.inf
        for a, u in enumerate(row_list):
            u = u + base[a]
            c = cap[a]
            if c > 0.0:
                load = u / c
            elif u > 0.0:
                load = math.inf
            else:
                load = u
            knee = ml[a]
            if load > knee:
                arg = (knee - load) / (1.0 - knee)
                q = mq[a] * math.exp(arg if arg < 0.0 else 0.0)
            else:
                q = mq[a]
            if q < best:
                best = q
        return best

    def _penalties(self, qos, resources: IntArray) -> FloatArray:
        """Eq. 23 penalties for ``resources`` hosted at QoS ``qos``."""
        cq = self.compiled.qos_guarantee[resources]
        cu = self.compiled.downtime_charge[resources]
        if self._literal:
            return cu * (qos / cq)
        return cu * np.maximum(0.0, (cq - qos) / cq)

    def _server_penalty_value(
        self, server: int, row_list: list[float], residents: set[int]
    ) -> float:
        if not residents:
            return 0.0
        qos = self._min_qos_row(server, row_list)
        cq = self._cq_list
        cu = self._cu_list
        total = 0.0
        if self._literal:
            for k in sorted(residents):  # deterministic summation order
                total += cu[k] * (qos / cq[k])
        else:
            for k in sorted(residents):
                guarantee = cq[k]
                shortfall = (guarantee - qos) / guarantee
                if shortfall > 0.0:
                    total += cu[k] * shortfall
        return total

    def _server_energy_value(
        self, server: int, row_list: list[float], residents: set[int]
    ) -> float:
        """Scalar linear-power price of one server row (0 when empty)."""
        if not residents:
            return 0.0
        inv = self._invcap_list[server]
        base = self._base_list[server]
        total = 0.0
        for a, u in enumerate(row_list):
            total += (u + base[a]) * inv[a]
        load = total / len(row_list)
        return self._idle_list[server] + self._dyn_list[server] * load

    def _migration_contrib(self, vm: int, server: int) -> float:
        if self._previous is None:
            return 0.0
        prev = int(self._previous[vm])
        if prev == UNPLACED or server == prev:
            return 0.0
        return float(self.compiled.migration_charge[vm])

    # ------------------------------------------------------------------
    # The delta core
    # ------------------------------------------------------------------
    def _delta(self, vm: int, server: int) -> _Delta:
        compiled = self.compiled
        vm = int(vm)
        new = int(server)
        if not (0 <= vm < compiled.n):
            raise ValidationError(f"vm {vm} outside [0, {compiled.n})")
        if new != UNPLACED and not (0 <= new < compiled.m):
            raise ValidationError(f"server {new} outside [0, {compiled.m})")
        old = int(self.assignment[vm])

        d = _Delta()
        d.old = old
        d.new = new
        d.cap_total = self._cap_total
        d.knee_total = self._knee_total
        d.group_total = self._group_total
        d.unplaced = self._unplaced
        d.usage_cost = self._usage_cost_total
        d.downtime_total = self._downtime_total
        d.migration_total = self._migration_total
        d.rows = {}
        d.over = {}
        d.knee = {}
        d.group_viol = {}
        d.server_penalty = {}
        d.server_energy = {}
        d.energy_total = self._energy_total
        d.operating_active = None
        if new == old:
            return d

        demand = compiled.demand[vm]
        if old != UNPLACED:
            d.rows[old] = self._usage[old] - demand
        if new != UNPLACED:
            d.rows[new] = self._usage[new] + demand
        row_lists = {s: row.tolist() for s, row in d.rows.items()}

        # Capacity (and the strict-QoS knee, when enabled): recount the
        # over-limit cells of the two touched server rows only, against
        # the constraint set's own thresholds.
        for s, row_list in row_lists.items():
            over = over_count(row_list, self._lps_list[s])
            d.over[s] = over
            d.cap_total += over - int(self._over[s])
            if self._strict:
                knee = over_count(row_list, self._kps_list[s])
                d.knee[s] = knee
                d.knee_total += knee - int(self._knee_over[s])

        # Groups containing the VM: recount with the candidate gene.
        for gi, pos in compiled.vm_group_slots[vm]:
            genes = self.assignment[compiled.group_members[gi]].tolist()
            genes[pos] = new
            viol = group_violations(compiled.group_rules[gi], genes, self._dc_list)
            d.group_viol[gi] = viol
            d.group_total += viol - int(self._group_viol[gi])

        # Assignment constraint (Eq. 5) when enabled.
        d.unplaced += int(new == UNPLACED) - int(old == UNPLACED)

        # Usage/operating cost.
        if self._per_server:
            if old != UNPLACED:
                d.usage_cost -= float(compiled.usage_cost[old])
                if len(self._residents[old]) == 1:
                    d.usage_cost -= float(compiled.operating_cost[old])
            if new != UNPLACED:
                d.usage_cost += float(compiled.usage_cost[new])
                if not self._residents[new]:
                    d.usage_cost += float(compiled.operating_cost[new])
        else:
            if old != UNPLACED:
                d.usage_cost -= float(compiled.per_resource_rate[old])
            if new != UNPLACED:
                d.usage_cost += float(compiled.per_resource_rate[new])

        # Downtime (and energy, when priced): re-price the residents of
        # the two touched servers.
        for s, row_list in row_lists.items():
            residents = self._residents[s]
            if s == old:
                residents = residents - {vm}
            elif vm not in residents:
                residents = residents | {vm}
            penalty = self._server_penalty_value(s, row_list, residents)
            d.server_penalty[s] = penalty
            d.downtime_total += penalty - float(self._server_penalty[s])
            if self._energy is not None:
                energy = self._server_energy_value(s, row_list, residents)
                d.server_energy[s] = energy
                d.energy_total += energy - float(self._server_energy[s])

        # Migration (Eq. 26).
        d.migration_total += self._migration_contrib(
            vm, new
        ) - self._migration_contrib(vm, old)
        return d

    def _score_of(self, d: _Delta, vm: int) -> MoveScore:
        violations = d.cap_total + d.group_total + d.knee_total
        if self._count_unplaced:
            violations += d.unplaced
        provider = d.usage_cost
        if self._energy is not None:
            provider += self._energy_weight * d.energy_total
        return MoveScore(
            vm=int(vm),
            server=d.new,
            old_server=d.old,
            violations=int(violations),
            objectives=np.array(
                [provider, d.downtime_total, d.migration_total]
            ),
        )

    # ------------------------------------------------------------------
    # Public move API
    # ------------------------------------------------------------------
    def score_move(self, vm: int, server: int) -> MoveScore:
        """Totals after relocating ``vm`` to ``server`` — no mutation."""
        self._scored_moves += 1
        return self._score_of(self._delta(vm, server), vm)

    def apply_move(self, vm: int, server: int) -> MoveScore:
        """Commit the relocation and return the updated totals."""
        d = self._delta(vm, server)
        self._applied_moves += 1
        if d.new == d.old:
            return self._score_of(d, vm)
        for s, row in d.rows.items():
            self._usage[s] = row
            self._over[s] = d.over[s]
            if self._strict:
                self._knee_over[s] = d.knee[s]
            self._server_penalty[s] = d.server_penalty[s]
            if self._energy is not None:
                self._server_energy[s] = d.server_energy[s]
        for gi, viol in d.group_viol.items():
            self._group_viol[gi] = viol
        if d.old != UNPLACED:
            self._residents[d.old].discard(int(vm))
        if d.new != UNPLACED:
            self._residents[d.new].add(int(vm))
        self._cap_total = d.cap_total
        self._knee_total = d.knee_total
        self._group_total = d.group_total
        self._unplaced = d.unplaced
        self._usage_cost_total = d.usage_cost
        self._downtime_total = d.downtime_total
        self._migration_total = d.migration_total
        self._energy_total = d.energy_total
        self.assignment[vm] = d.new
        return self._score_of(d, vm)

    # ------------------------------------------------------------------
    # Parity surface (compared by repro.verify.check_parity)
    # ------------------------------------------------------------------
    def component_totals(self) -> dict[str, float]:
        """The tracked per-term state: the four constraint components
        (:data:`CONSTRAINT_TERMS`) and three objective terms
        (:data:`OBJECTIVE_TERMS`, plus ``energy`` when priced) as one
        flat dict."""
        totals = {
            "capacity": float(self._cap_total),
            "group": float(self._group_total),
            "load_cap": float(self._knee_total),
            "unplaced": float(self._unplaced),
            "usage_cost": float(self._usage_cost_total),
            "downtime": float(self._downtime_total),
            "migration": float(self._migration_total),
        }
        if self._energy is not None:
            totals["energy"] = float(self._energy_total)
        return totals

    # ------------------------------------------------------------------
    def flush_telemetry(self) -> None:
        """Fold locally batched move counters into the registry."""
        registry = get_registry()
        if self._scored_moves:
            registry.count("engine.delta.score_moves", self._scored_moves)
            self._scored_moves = 0
        if self._applied_moves:
            registry.count("engine.delta.apply_moves", self._applied_moves)
            self._applied_moves = 0
