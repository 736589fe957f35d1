"""Standalone tabu search over whole placements.

The paper uses tabu search as the repair inside NSGA-III; this module
additionally exposes it as a self-contained local-search optimizer so
the ablation benches can ask "how far does the tabu component get on
its own?".  The move neighbourhood is single-VM relocation (the same
moves the repair performs); the aspiration criterion admits tabu moves
that improve the best score found so far.

Each iteration's candidate relocations are scored as one ``(k, n)``
tile — the current genome with one gene changed per row — through
:meth:`~repro.objectives.evaluator.PopulationEvaluator.evaluate_population`,
the body every other layer scores with.  The tabu memory forbids the
*candidate* move (vm, srv): re-entering a freshly vacated server is
blocked for ``tenure`` insertions unless the move beats the global best
(aspiration).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.objectives.evaluator import PopulationEvaluator
from repro.tabu.neighborhood import TabuList
from repro.telemetry import TabuIteration, get_bus, get_registry
from repro.types import FloatArray, IntArray
from repro.utils.rng import as_generator
from repro.utils.timers import Stopwatch

__all__ = ["TabuRun", "TabuSearch", "TabuSearchResult"]


@dataclass(frozen=True)
class TabuSearchResult:
    """Outcome of a standalone tabu-search run."""

    assignment: IntArray
    objectives: FloatArray
    violations: int
    iterations: int
    evaluations: int
    elapsed: float


class TabuSearch:
    """Single-solution tabu search with relocation moves.

    Parameters
    ----------
    evaluator:
        Problem instance wrapper providing objectives and violations;
        every candidate is scored through it, so every evaluation
        setting (base usage, previous assignment, downtime mode,
        strict-QoS cap, ...) carries over.
    max_iterations:
        Outer iterations (one accepted move each).
    neighborhood_size:
        Candidate moves sampled per iteration.
    tenure:
        Tabu memory length.
    seed:
        RNG seed.
    """

    def __init__(
        self,
        evaluator: PopulationEvaluator,
        max_iterations: int = 200,
        neighborhood_size: int = 32,
        tenure: int = 32,
        seed=None,
    ) -> None:
        if max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if neighborhood_size < 1:
            raise ValidationError("neighborhood_size must be >= 1")
        self.evaluator = evaluator
        self.max_iterations = int(max_iterations)
        self.neighborhood_size = int(neighborhood_size)
        self.tenure = int(tenure)
        self._rng = as_generator(seed)

    # ------------------------------------------------------------------
    @staticmethod
    def _iteration_event(
        iteration: int,
        moves_evaluated: int,
        accepted: bool,
        best_score: tuple[int, float],
    ) -> TabuIteration:
        return TabuIteration(
            iteration=iteration,
            moves_evaluated=moves_evaluated,
            accepted=accepted,
            best_violations=int(best_score[0]),
            best_aggregate=float(best_score[1]),
        )

    def start(self, initial: IntArray) -> "TabuRun":
        """Begin a stepwise search from ``initial``; see :class:`TabuRun`."""
        return TabuRun(self, initial)

    def run(self, initial: IntArray) -> TabuSearchResult:
        """Search from ``initial``; returns the best placement visited."""
        run = self.start(initial)
        while run.step():
            pass
        return run.result()


class TabuRun:
    """One in-progress tabu search, advanced iteration by iteration.

    Obtained from :meth:`TabuSearch.start`.  Holds the walk state —
    current genome, tabu memory, current/best scores, the search's RNG —
    so :meth:`step` can run bounded slices of the classic loop and
    :meth:`best_solution` is valid between any two slices.  Driving
    ``while run.step(): pass`` then :meth:`result` is byte-identical to
    the blocking :meth:`TabuSearch.run`, which now does exactly that.
    """

    def __init__(self, search: TabuSearch, initial: IntArray) -> None:
        self.search = search
        n = search.evaluator.request.n
        current = np.asarray(initial, dtype=np.int64).copy()
        if current.shape != (n,):
            raise ValidationError(
                f"initial assignment shape {current.shape}, expected ({n},)"
            )
        self.stopwatch = Stopwatch().start()
        self.tabu = TabuList(tenure=search.tenure)
        self._bus = get_bus()
        self.current = current
        self.current_score = self._assess(current)
        self.evaluations = 1
        self.best = current.copy()
        self.best_score = self.current_score
        self.iteration = 0
        self._result: TabuSearchResult | None = None

    # ------------------------------------------------------------------
    def _assess(self, assignment: IntArray) -> tuple[int, float]:
        """(violations, aggregate) of one genome through the evaluator."""
        objectives, violations = self.search.evaluator.assess(assignment)
        return int(violations), objectives.aggregate()

    def _advance(self) -> None:
        """Exactly one iteration — the body of the classic loop."""
        search = self.search
        current = self.current
        n = search.evaluator.request.n
        m = search.evaluator.infrastructure.m
        self.iteration += 1
        iterations = self.iteration

        vms = search._rng.integers(0, n, size=search.neighborhood_size)
        servers = search._rng.integers(0, m, size=search.neighborhood_size)
        # Candidate relocations, skipping no-op moves.
        keep = servers != current[vms]
        vms, servers = vms[keep], servers[keep]
        moves = int(vms.size)
        best_move = None
        best_move_score = None
        if moves:
            # One row per candidate: the current genome, one gene moved.
            tile = np.repeat(current[None, :], moves, axis=0)
            tile[np.arange(moves), vms] = servers
            scored = search.evaluator.evaluate_population(tile)
            self.evaluations += moves
            candidates = zip(
                vms.tolist(),
                servers.tolist(),
                scored.violations.tolist(),
                scored.aggregate().tolist(),
            )
            for vm, srv, violations, aggregate in candidates:
                score = (violations, aggregate)
                # Short-term memory forbids the candidate move itself;
                # aspiration admits it anyway when it would beat the
                # global best.
                if (vm, srv) in self.tabu and score >= self.best_score:
                    continue
                if best_move_score is None or score < best_move_score:
                    best_move = (vm, srv)
                    best_move_score = score
        if best_move is None:
            if self._bus.enabled:
                self._bus.emit(
                    search._iteration_event(
                        iterations, moves, False, self.best_score
                    )
                )
            return
        vm, srv = best_move
        self.tabu.add(vm, int(current[vm]))
        current[vm] = srv
        self.current_score = best_move_score
        if self.current_score < self.best_score:
            self.best_score = self.current_score
            self.best = current.copy()
        if self._bus.enabled:
            self._bus.emit(
                search._iteration_event(
                    iterations, moves, True, self.best_score
                )
            )

    def step(self, iterations: int = 1) -> bool:
        """Advance up to ``iterations``; False = the budget is spent."""
        for _ in range(int(iterations)):
            if self.iteration >= self.search.max_iterations:
                return False
            self._advance()
        return self.iteration < self.search.max_iterations

    def best_solution(self) -> IntArray:
        """Best placement visited so far (copy), at any instant."""
        return self.best.copy()

    def reseed(self, assignment: IntArray, score: tuple[int, float]) -> bool:
        """Adopt a pooled incumbent as the walk's current position.

        ``score`` is the (violations, aggregate) pair the pool recorded
        for ``assignment`` under the same evaluation configuration.
        The jump is taken only when it beats the *current* position —
        strictly, so repeated exchanges with an unchanged pool are
        no-ops — and the tabu memory survives, steering the walk away
        from rediscovering its own past.  Deterministic: no RNG draws.
        """
        score = (int(score[0]), float(score[1]))
        if score >= self.current_score:
            return False
        self.current = np.array(assignment, dtype=np.int64)
        self.current_score = self._assess(self.current)
        if self.current_score < self.best_score:
            self.best_score = self.current_score
            self.best = self.current.copy()
        return True

    def result(self) -> TabuSearchResult:
        """Freeze the walk into a :class:`TabuSearchResult` (idempotent)."""
        if self._result is not None:
            return self._result
        search = self.search
        self.stopwatch.stop()
        registry = get_registry()
        registry.count("tabu.search.iterations", self.iteration)
        registry.count("tabu.search.evaluations", self.evaluations)
        registry.observe("tabu.search.seconds", self.stopwatch.elapsed)
        # One full evaluation of the winner — objectives and violations
        # in a single pass (the usage scatter is shared, see assess()).
        final_objectives, final_violations = search.evaluator.assess(self.best)
        self.evaluations += 1
        self._result = TabuSearchResult(
            assignment=self.best,
            objectives=final_objectives.as_array(),
            violations=int(final_violations),
            iterations=self.iteration,
            evaluations=self.evaluations,
            elapsed=self.stopwatch.elapsed,
        )
        return self._result

    # ------------------------------------------------------------------
    # Portfolio checkpoint plumbing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-able snapshot of the walk (for composite checkpoints)."""
        return {
            "assignment": self.current.tolist(),
            "best": self.best.tolist(),
            "current_score": [self.current_score[0], self.current_score[1]],
            "best_score": [self.best_score[0], self.best_score[1]],
            "iteration": self.iteration,
            "evaluations": self.evaluations,
            "elapsed": self.stopwatch.elapsed,
            "rng_state": self.search._rng.bit_generator.state,
            "tabu": [list(key) for key in self.tabu._entries],
        }

    def load_state_dict(self, payload: dict) -> None:
        """Restore a :meth:`state_dict` snapshot byte-identically: the
        recorded scores are taken as saved, not rescored."""
        self.current = np.array(payload["assignment"], dtype=np.int64)
        self.best = np.asarray(payload["best"], dtype=np.int64)
        self.current_score = (
            int(payload["current_score"][0]),
            float(payload["current_score"][1]),
        )
        self.best_score = (
            int(payload["best_score"][0]),
            float(payload["best_score"][1]),
        )
        self.iteration = int(payload["iteration"])
        self.evaluations = int(payload["evaluations"])
        self.stopwatch = Stopwatch(elapsed=float(payload["elapsed"])).start()
        self.search._rng.bit_generator.state = payload["rng_state"]
        self.tabu.clear()
        for vm, server in payload["tabu"]:
            self.tabu.add(int(vm), int(server))
