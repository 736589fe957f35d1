"""Differential oracle: replay one placement through every scorer.

The reproduction has four independent views of what a placement is
worth: the reference :class:`~repro.objectives.evaluator.PopulationEvaluator`
(the paper's Figure 3 evaluation box), the
:class:`~repro.engine.incremental.IncrementalEvaluator` move path (the
fast scorer every search layer now rides on), the sparse ILP encoding
of Section III (and its LP relaxation bound), and — on small instances
— the complete CP search.  They implement the same mathematics through
entirely different code paths, which makes them ideal mutual oracles:
any disagreement is a bug in one of them, and the per-term mismatches
say which term drifted.

:func:`check_parity` is the one incremental-vs-reference comparison:
it compares an :class:`IncrementalEvaluator`'s tracked totals, priced
by the state's own scalar code, term by term with row 0 of the
population path on a batch of one.

:class:`DifferentialOracle` runs the comparisons for one instance:

* **incremental vs reference** — the target assignment is *reached by
  applying moves* (never by resetting), so the delta path itself is
  exercised; :func:`check_parity` runs at checkpoints along the walk
  and at its end;
* **LP encoding vs constraint set** — a complete, constraint-feasible
  assignment must satisfy every row of the sparse ILP, and the LP
  relaxation optimum must lower-bound its usage/operating cost;
* **CP vs reference** — the CP search's returned placement must be
  feasible under the reference constraints; a CP infeasibility *proof*
  contradicts any feasible complete assignment we hold; a proved
  optimum lower-bounds the cost of ours.

``perturb=(term, delta)`` injects a deliberate fault into the
incremental candidate's term before comparison — the self-test hook
behind ``python -m repro verify --perturb`` proving the oracle actually
fires.
"""

from __future__ import annotations

import numpy as np

from repro.engine import CompiledProblem
from repro.engine.incremental import (
    CONSTRAINT_TERMS,
    OBJECTIVE_TERMS,
    IncrementalEvaluator,
)
from repro.engine.kernels import active_kernel
from repro.model.placement import UNPLACED
from repro.objectives.evaluator import PopulationEvaluator
from repro.types import FloatArray, IntArray
from repro.verify.checks import Report

__all__ = ["DifferentialOracle", "check_parity"]

#: Objective terms compare to float re-association noise; constraint
#: counts compare exactly.
_RTOL = 1e-9
_ATOL = 1e-9
#: Absolute slack on the LP/CP bounds, for the solvers' own tolerances.
_BOUND_SLACK = 1e-6
#: The CP cross-check runs only when ``n * m`` is at most this (the
#: search is complete but exponential).
_CP_MAX_VARIABLES = 400


def _reference_terms(evaluator, assignment: IntArray) -> dict[str, float]:
    """Every term the incremental state tracks, recomputed from scratch
    as row 0 of ``evaluator``'s population path on a batch of one
    (``energy`` only when it prices energy)."""
    population = np.asarray(assignment, dtype=np.int64)[None, :]
    constraints = evaluator.constraints
    usage = constraints.capacity.batch_usage(population)
    terms = {
        "capacity": active_kernel().batch_over_counts(
            usage, constraints.capacity.threshold
        )[0],
        "group": constraints.batch_group_violations(population).sum(),
        "load_cap": (
            constraints.load_cap.batch_violations(population)[0]
            if constraints.load_cap is not None
            else 0
        ),
        "unplaced": np.count_nonzero(population == UNPLACED),
        "usage_cost": evaluator.usage_cost.batch(population)[0],
        "downtime": evaluator.downtime.batch(population, usage)[0],
        "migration": evaluator.migration.batch(population)[0],
    }
    if evaluator.energy is not None:
        terms["energy"] = evaluator.energy.batch(population, usage)[0]
    return {term: float(value) for term, value in terms.items()}


def check_parity(
    state: IncrementalEvaluator,
    report: Report | None = None,
    *,
    where: str = "incremental",
    perturb: tuple[str, float] | None = None,
) -> Report:
    """Compare ``state``'s tracked totals with the population path.

    The reference is row 0 of ``state.evaluator``'s population path on
    a batch of one — the evaluator whose settings the state reads, so
    ``energy`` is compared whenever it prices it.
    Constraint components must match exactly, objective terms to float
    re-association noise; each term is one comparison, and a drifted
    term's mismatch names it with both values.  Comparisons land in
    ``report`` under ``where`` (the oracle's walk passes its own), else
    in a new ``parity`` report.  ``perturb=(term, delta)`` shifts the
    incremental total of ``term`` first: the fault injection proving
    the comparison fires.
    """
    if report is None:
        report = Report("parity", f"{state.compiled.m}x{state.compiled.n}")
    candidate = state.component_totals()
    if perturb is not None:
        term, delta = perturb
        candidate[term] += delta
    reference = _reference_terms(state.evaluator, state.assignment)
    for term, expected in reference.items():
        actual = candidate[term]
        if term in CONSTRAINT_TERMS:
            ok = actual == expected
        else:
            ok = bool(np.isclose(actual, expected, rtol=_RTOL, atol=_ATOL))
        report.note(
            ok,
            where,
            term,
            f"reference={expected:.12g} candidate={actual:.12g} "
            f"delta={actual - expected:+.3g}",
        )
    return report


class DifferentialOracle:
    """Cross-checks every scoring backend on one problem instance.

    Parameters
    ----------
    evaluator:
        The reference :class:`PopulationEvaluator`; its instance and
        evaluation settings configure every backend.
    compiled:
        Optional shared compilation of the evaluator's instance.
    perturb:
        Optional ``(term, delta)`` fault injection into the incremental
        candidate — the oracle must then report a mismatch on ``term``.
    """

    def __init__(
        self,
        evaluator: PopulationEvaluator,
        *,
        compiled: CompiledProblem | None = None,
        perturb: tuple[str, float] | None = None,
    ) -> None:
        self.evaluator = evaluator
        self.compiled = compiled or CompiledProblem.compile(
            evaluator.infrastructure, evaluator.request
        )
        if perturb is not None:
            term = perturb[0]
            if term not in CONSTRAINT_TERMS + OBJECTIVE_TERMS:
                raise ValueError(
                    f"unknown perturbation term {term!r}; expected one of "
                    f"{CONSTRAINT_TERMS + OBJECTIVE_TERMS}"
                )
        self.perturb = perturb

    # ------------------------------------------------------------------
    # Incremental backend
    # ------------------------------------------------------------------
    def _check_incremental(
        self,
        target: IntArray,
        rng: np.random.Generator,
        report: Report,
        detours: int,
        checkpoint_every: int,
    ) -> None:
        n, m = self.compiled.n, self.compiled.m
        start = np.full(n, UNPLACED, dtype=np.int64)
        state = IncrementalEvaluator(self.compiled, self.evaluator, start)

        moves: list[tuple[int, int]] = []
        for vm in rng.permutation(n):
            for _ in range(detours):
                moves.append((int(vm), int(rng.integers(0, m))))
            moves.append((int(vm), int(target[vm])))

        for step, (vm, server) in enumerate(moves, start=1):
            preview = state.score_move(vm, server)
            committed = state.apply_move(vm, server)
            report.note(
                preview.violations == committed.violations
                and np.allclose(preview.objectives, committed.objectives),
                "incremental",
                "score_move",
                f"score_move({vm}, {server}) disagrees with the committed "
                "apply_move totals",
            )
            if checkpoint_every and step % checkpoint_every == 0:
                check_parity(state, report, where=f"incremental after {step} moves")

        reached = np.array_equal(state.assignment, target)
        report.note(
            reached,
            "incremental",
            "assignment",
            "move replay did not reach the target assignment",
        )
        if reached:
            check_parity(
                state, report, where="incremental at walk end", perturb=self.perturb
            )

    # ------------------------------------------------------------------
    # LP backend
    # ------------------------------------------------------------------
    def _encode(self, assignment: IntArray, n: int, m: int) -> FloatArray:
        x = np.zeros(n * m)
        x[np.arange(n) * m + assignment] = 1.0
        return x

    def _check_lp(
        self, assignment: IntArray, feasible: bool, usage_cost: float, report: Report
    ) -> None:
        from repro.lp.model import ILPModel
        from scipy.optimize import linprog

        evaluator = self.evaluator
        model = ILPModel.build(
            evaluator.infrastructure,
            evaluator.request,
            base_usage=evaluator.constraints.base_usage,
        )
        x = self._encode(assignment, model.n, model.m)
        report.note(
            not feasible or model.check(x),
            "lp",
            "feasibility",
            "assignment is feasible under the constraint set but violates a "
            "row of the sparse ILP encoding",
        )
        integral_cost = float(model.objective @ x)
        report.note(
            bool(np.isclose(integral_cost, usage_cost, rtol=_RTOL, atol=_ATOL)),
            "lp",
            "usage_cost",
            "ILP objective disagrees with Eq. 22 usage cost: "
            f"reference={usage_cost:.12g} candidate={integral_cost:.12g}",
        )
        if not feasible:
            return
        relaxed = linprog(
            c=model.objective,
            A_ub=model.a_ub,
            b_ub=model.b_ub,
            A_eq=model.a_eq,
            b_eq=model.b_eq,
            bounds=(0, 1),
            method="highs",
        )
        if relaxed.status != 0:  # pragma: no cover - solver hiccup
            return
        report.note(
            relaxed.fun <= usage_cost + _BOUND_SLACK,
            "lp",
            "usage_cost",
            f"LP relaxation optimum {relaxed.fun:.12g} exceeds the cost "
            f"{usage_cost:.12g} of a feasible integral placement (bound violated)",
        )

    # ------------------------------------------------------------------
    # CP backend
    # ------------------------------------------------------------------
    def _check_cp(self, feasible: bool, usage_cost: float, report: Report) -> None:
        from repro.cp.search import SearchLimits
        from repro.cp.solver import CPSolver

        evaluator = self.evaluator
        solver = CPSolver(
            evaluator.infrastructure,
            evaluator.request,
            base_usage=evaluator.constraints.base_usage,
            limits=SearchLimits(max_nodes=20_000, time_limit=5.0),
        )
        solution = solver.optimize()
        if solution.found:
            cp_terms = _reference_terms(evaluator, np.asarray(solution.assignment))
            non_assignment = (
                cp_terms["capacity"] + cp_terms["group"] + cp_terms["load_cap"]
            )
            broken = ", ".join(
                f"{t}={cp_terms[t]:g}"
                for t in ("capacity", "group", "unplaced")
                if cp_terms[t]
            )
            report.note(
                not (cp_terms["unplaced"] or non_assignment),
                "cp",
                "feasibility",
                f"CP returned a placement the reference constraint set rejects ({broken})",
            )
            if feasible and solution.proved:
                report.note(
                    solution.cost <= usage_cost + _BOUND_SLACK,
                    "cp",
                    "usage_cost",
                    f"CP proved an optimum {solution.cost:.12g} costlier than "
                    f"a feasible placement we hold ({usage_cost:.12g})",
                )
        elif solution.proved and feasible:
            report.note(
                False,
                "cp",
                "feasibility",
                "CP proved infeasibility, but the assignment under test is "
                "feasible and complete",
            )

    # ------------------------------------------------------------------
    def replay(
        self,
        assignment: IntArray,
        *,
        seed=None,
        detours: int = 2,
        checkpoint_every: int = 50,
        lp: bool = True,
        cp: bool = True,
    ) -> Report:
        """Cross-check ``assignment`` through every applicable backend.

        The incremental backend always runs (the assignment is reached
        through ``detours + 1`` moves per VM from an empty placement,
        with :func:`check_parity` every ``checkpoint_every`` moves and
        at the end).  The LP checks run for fully placed assignments
        when SciPy's LP stack imports and the scalar usage-cost mode is
        in effect; the CP check additionally requires ``n * m <= 400``.
        The returned ``oracle`` report lists the backends consulted in
        ``stats["backends"]``.
        """
        target = np.asarray(assignment, dtype=np.int64)
        rng = np.random.default_rng(seed)
        report = Report("oracle", f"{self.compiled.m}x{self.compiled.n}")
        backends = ["incremental"]

        self._check_incremental(
            target, rng, report, detours=detours, checkpoint_every=checkpoint_every
        )

        evaluator = self.evaluator
        reference = _reference_terms(evaluator, target)
        complete = reference["unplaced"] == 0
        feasible = complete and (
            reference["capacity"] + reference["group"] + reference["load_cap"] == 0
        )
        scalar_cost_mode = (
            not evaluator.usage_cost.per_server_operating
            and evaluator.constraints.load_cap is None
        )

        if lp and complete and scalar_cost_mode:
            try:
                self._check_lp(target, feasible, reference["usage_cost"], report)
                backends.append("lp")
            except ImportError:  # pragma: no cover - scipy always bundled
                pass
        if (
            cp
            and scalar_cost_mode
            and self.compiled.n * self.compiled.m <= _CP_MAX_VARIABLES
        ):
            self._check_cp(feasible, reference["usage_cost"], report)
            backends.append("cp")

        report.stats["backends"] = ",".join(backends)
        return report
