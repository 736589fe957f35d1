"""PopulationEvaluator: one-stop evaluation of genomes and populations.

This is the "evaluation process" box of the paper's Figure 3: given a
problem instance it computes, for each candidate placement, the three
objective values (Eq. 22/23/26) and the total constraint violations.
The batch path shares a single usage-tensor scatter-add between the
capacity constraint and the downtime objective, which keeps the 10 000
evaluations of Table III tractable in pure Python.  It is the only
path: one genome is scored as row 0 of a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constraints.registry import ConstraintSet
from repro.model.infrastructure import Infrastructure
from repro.model.request import Request
from repro.objectives.aggregate import ObjectiveVector, aggregate_scalar
from repro.objectives.downtime import DowntimeCost
from repro.objectives.energy import EnergyCost
from repro.objectives.migration import MigrationCost
from repro.objectives.usage_cost import UsageOperatingCost
from repro.types import FloatArray, IntArray

__all__ = ["PopulationEvaluator", "EvaluationResult"]


@dataclass(frozen=True)
class EvaluationResult:
    """Batch evaluation output.

    Attributes
    ----------
    objectives:
        (pop, 3) matrix in canonical objective order.
    violations:
        (pop,) total constraint violations per individual.
    """

    objectives: FloatArray
    violations: IntArray

    @property
    def feasible(self) -> np.ndarray:
        """Boolean feasibility mask."""
        return self.violations == 0

    def aggregate(self, weights: FloatArray | None = None) -> FloatArray:
        """Scalar Z per individual (Eq. 15)."""
        return aggregate_scalar(self.objectives, weights)


class PopulationEvaluator:
    """Evaluate genomes against one allocation problem instance.

    Parameters
    ----------
    infrastructure, request:
        The instance.
    base_usage:
        Committed usage from earlier windows.
    previous_assignment:
        X^t for the migration objective (None for first placement).
    downtime_mode:
        Passed through to :class:`DowntimeCost`.
    per_server_operating:
        Passed through to :class:`UsageOperatingCost`.
    include_assignment_constraint:
        Whether unplaced genes count as violations (off for EAs whose
        genomes are always fully placed).
    qos_strict:
        Enable the hard load-cap constraint (L <= LM) in addition to
        plain capacity (see :mod:`repro.constraints.load_cap`).
    energy_weight:
        Weight of the optional :class:`EnergyCost` term folded into
        objective column 0 (see :mod:`repro.objectives.energy`);
        0.0 — the default — skips the term entirely and reproduces the
        paper's formulation bit for bit.
    constraints:
        An already-built :class:`ConstraintSet` for this instance and
        these options (e.g. bound from a
        :class:`repro.engine.CompiledProblem`); when given it is used
        as-is instead of constructing a fresh one.
    """

    def __init__(
        self,
        infrastructure: Infrastructure,
        request: Request,
        *,
        base_usage: FloatArray | None = None,
        previous_assignment: IntArray | None = None,
        downtime_mode: str = "shortfall",
        per_server_operating: bool = False,
        include_assignment_constraint: bool = False,
        qos_strict: bool = False,
        energy_weight: float = 0.0,
        constraints: ConstraintSet | None = None,
    ) -> None:
        self.infrastructure = infrastructure
        self.request = request
        self.constraints = constraints if constraints is not None else ConstraintSet(
            infrastructure,
            request,
            base_usage=base_usage,
            include_assignment=include_assignment_constraint,
            qos_strict=qos_strict,
        )
        self.usage_cost = UsageOperatingCost(
            infrastructure, per_server_operating=per_server_operating
        )
        self.downtime = DowntimeCost(
            infrastructure, request, base_usage=base_usage, mode=downtime_mode
        )
        self.migration = MigrationCost(request, previous_assignment)
        self.energy_weight = float(energy_weight)
        self.energy: EnergyCost | None = (
            EnergyCost(infrastructure, request.demand, base_usage=base_usage)
            if self.energy_weight > 0.0
            else None
        )
        self._evaluations = 0

    # ------------------------------------------------------------------
    @property
    def evaluation_count(self) -> int:
        """Genome evaluations performed so far (Table III budget metric)."""
        return self._evaluations

    def reset_counter(self) -> None:
        """Zero the evaluation counter (between algorithm runs)."""
        self._evaluations = 0

    # ------------------------------------------------------------------
    def evaluate(self, assignment: IntArray) -> ObjectiveVector:
        """Objective vector of one genome (row 0 of a batch of one)."""
        return self.assess(assignment)[0]

    def assess(self, assignment: IntArray) -> tuple[ObjectiveVector, int]:
        """Objectives *and* violations of one genome: row 0 of
        :meth:`evaluate_population` on a batch of one."""
        result = self.evaluate_population(np.asarray(assignment)[None, :])
        return (
            ObjectiveVector.from_array(result.objectives[0]),
            int(result.violations[0]),
        )

    # ------------------------------------------------------------------
    def evaluate_population(self, population: IntArray) -> EvaluationResult:
        """Vectorized evaluation of a population matrix (pop, n)."""
        population = np.ascontiguousarray(population, dtype=np.int64)
        if population.ndim != 2:
            raise ValueError(
                f"population must be 2-D (pop, n), got {population.shape}"
            )
        pop = population.shape[0]
        self._evaluations += pop

        usage = self.constraints.capacity.batch_usage(population)
        violations = self.constraints.batch_violations(population, usage=usage)

        objectives = np.empty((pop, 3))
        objectives[:, 0] = self.usage_cost.batch(population)
        if self.energy is not None:
            objectives[:, 0] += self.energy_weight * self.energy.batch(
                population, usage
            )
        objectives[:, 1] = self.downtime.batch(population, usage)
        objectives[:, 2] = self.migration.batch(population)
        return EvaluationResult(objectives=objectives, violations=violations)
