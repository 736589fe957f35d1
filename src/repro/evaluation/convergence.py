"""Convergence analysis over per-generation history.

The paper rejects the violation-penalty strategy because it "lead[s]
to serious increases in response times" — a claim about *convergence
speed*, not final quality.  These helpers turn an
:class:`~repro.ea.result.EvolutionResult` history into the numbers that
test such claims:

* :func:`evaluations_to_feasible` — budget spent before the population
  first contains a feasible individual;
* :func:`evaluations_to_within` — budget spent before the running best
  aggregate first comes within a factor of its final value;
* :func:`convergence_summary` — both, plus endpoints, as a dict.
"""

from __future__ import annotations

from repro.ea.result import EvolutionResult, GenerationStats

__all__ = [
    "evaluations_to_feasible",
    "evaluations_to_within",
    "convergence_summary",
]


def _history(result: EvolutionResult) -> list[GenerationStats]:
    if not result.history:
        raise ValueError(
            "result has no history; run the engine with track_history=True"
        )
    return result.history


def evaluations_to_feasible(result: EvolutionResult) -> int | None:
    """Evaluations consumed when a feasible individual first appeared.

    None if the run never produced one.
    """
    for stats in _history(result):
        if stats.feasible_fraction > 0:
            return stats.evaluations
    return None


def evaluations_to_within(result: EvolutionResult, factor: float = 1.05) -> int:
    """Evaluations until the best aggregate first reached
    ``factor * final_best`` (1.05 = within 5% of the final value)."""
    if factor < 1.0:
        raise ValueError(f"factor must be >= 1, got {factor}")
    history = _history(result)
    final = history[-1].best_aggregate
    threshold = factor * final if final >= 0 else final / factor
    for stats in history:
        if stats.best_aggregate <= threshold:
            return stats.evaluations
    return history[-1].evaluations


def convergence_summary(result: EvolutionResult) -> dict:
    """One-line-able convergence record for reports and benches."""
    history = _history(result)
    return {
        "algorithm": result.algorithm,
        "generations": len(history) - 1,
        "evaluations": result.evaluations,
        "evals_to_feasible": evaluations_to_feasible(result),
        "evals_to_within_5pct": evaluations_to_within(result, 1.05),
        "final_best_aggregate": history[-1].best_aggregate,
        "final_feasible_fraction": history[-1].feasible_fraction,
        "elapsed": result.elapsed,
    }
