"""Differential oracle: replay one placement through the exact solvers.

The reproduction scores every placement through one body, the
:class:`~repro.objectives.evaluator.PopulationEvaluator` (the paper's
Figure 3 evaluation box), and has two independent views to hold it to:
the sparse ILP encoding of Section III (and its LP relaxation bound)
and — on small instances — the complete CP search.  They implement the
same mathematics through entirely different code paths, which makes
them mutual oracles: any disagreement is a bug in one of them, and the
named mismatch says which backend and which term disagreed.

:class:`DifferentialOracle` runs the comparisons for one instance:

* **LP encoding vs constraint set** — a complete, constraint-feasible
  assignment must satisfy every row of the sparse ILP, its ILP
  objective must equal the Eq. 22 usage cost, and the LP relaxation
  optimum must lower-bound that cost;
* **CP vs reference** — the CP search's returned placement must be
  feasible under the reference constraints; a CP infeasibility *proof*
  contradicts any feasible complete assignment we hold; a proved
  optimum lower-bounds the cost of ours.  The search runs under a node
  budget only, so what it compares depends on the instance and not on
  the host; a search that ends unproved compares no bound, and the
  report counts it in ``stats["cp_unproved"]``.
"""

from __future__ import annotations

import numpy as np

from repro.engine.compiled import CompiledProblem
from repro.model.placement import UNPLACED
from repro.objectives.evaluator import PopulationEvaluator
from repro.types import FloatArray, IntArray
from repro.verify.checks import Report

__all__ = ["DifferentialOracle"]

#: The ILP objective compares to float re-association noise.
_RTOL = 1e-9
_ATOL = 1e-9
#: Absolute slack on the LP/CP bounds, for the solvers' own tolerances.
_BOUND_SLACK = 1e-6
#: The CP cross-check runs only when ``n * m`` is at most this (the
#: search is complete but exponential).
_CP_MAX_VARIABLES = 400
#: Node budget of the CP cross-check's search.
_CP_MAX_NODES = 20_000


def _reference_terms(evaluator, assignment: IntArray) -> dict[str, float]:
    """The terms the LP and CP backends check, as row 0 of
    ``evaluator``'s population path on a batch of one."""
    population = np.asarray(assignment, dtype=np.int64)[None, :]
    constraints = evaluator.constraints
    terms = {
        "capacity": constraints.capacity.batch_violations(population)[0],
        "group": constraints.batch_group_violations(population).sum(),
        "unplaced": np.count_nonzero(population == UNPLACED),
        "usage_cost": evaluator.usage_cost.batch(population)[0],
    }
    return {term: float(value) for term, value in terms.items()}


class DifferentialOracle:
    """Cross-checks the population path against the LP and CP backends
    on one problem instance.

    Parameters
    ----------
    evaluator:
        The reference :class:`PopulationEvaluator`; its instance and
        evaluation settings configure every backend.
    """

    def __init__(self, evaluator: PopulationEvaluator) -> None:
        self.evaluator = evaluator

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
            CompiledProblem.compile(evaluator.infrastructure, evaluator.request),
            base_usage=evaluator.constraints.base_usage,
            limits=SearchLimits(max_nodes=_CP_MAX_NODES),
        )
        solution = solver.optimize()
        report.stats["cp_unproved"] = int(not solution.proved)
        if solution.found:
            cp_terms = _reference_terms(evaluator, np.asarray(solution.assignment))
            non_assignment = cp_terms["capacity"] + cp_terms["group"]
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
    def replay(self, assignment: IntArray, *, lp: bool = True, cp: bool = True) -> Report:
        """Cross-check ``assignment`` through every applicable backend.

        The LP checks run for fully placed assignments when SciPy's LP
        stack imports; the CP check runs when ``n * m <= 400``.  The returned
        ``oracle`` report lists the backends consulted in
        ``stats["backends"]`` and, when CP ran, whether its search ended
        without a proof in ``stats["cp_unproved"]`` (0 or 1).
        """
        target = np.asarray(assignment, dtype=np.int64)
        evaluator = self.evaluator
        n, m = evaluator.request.n, evaluator.infrastructure.m
        report = Report("oracle", f"{m}x{n}")
        backends: list[str] = []

        reference = _reference_terms(evaluator, target)
        complete = reference["unplaced"] == 0
        feasible = complete and reference["capacity"] + reference["group"] == 0

        if lp and complete:
            try:
                self._check_lp(target, feasible, reference["usage_cost"], report)
                backends.append("lp")
            except ImportError:  # pragma: no cover - scipy always bundled
                pass
        if cp and n * m <= _CP_MAX_VARIABLES:
            self._check_cp(feasible, reference["usage_cost"], report)
            backends.append("cp")

        report.stats["backends"] = ",".join(backends)
        return report
