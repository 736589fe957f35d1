"""Uniform allocator interface and outcome records.

Section IV compares six very different algorithms on four shared
criteria: execution time, rejection rate, violated constraints and
provider cost.  That only works if every algorithm reports through the
same lens; :class:`Allocator` is that lens.

An allocator receives a *batch* of consumer requests (the paper's
cyclic time window collects "all requests within a cyclic time
window"), the provider infrastructure, committed usage from earlier
windows and, for reconfiguration runs, the previous assignment.  It
returns a :class:`BatchOutcome`: the merged placement, which requests
were rejected, the violation breakdown and the objective values of the
final allocation.

Rejection semantics (Figure 9): a request is **rejected** when, in the
returned allocation, any of its resources is unplaced, sits on a
server whose capacity is exceeded, or belongs to a violated
affinity/anti-affinity group.  Greedy algorithms reject by leaving
resources unplaced; unmodified evolutionary algorithms "reject" by
emitting violating placements — the same counter captures both.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.constraints.registry import ConstraintSet
from repro.engine import CompiledProblem, ParallelEngine, ProblemCache
from repro.runtime.checkpoint import CheckpointManager
from repro.model.infrastructure import Infrastructure
from repro.model.placement import UNPLACED
from repro.model.request import Request
from repro.types import AlgorithmKind, BoolArray, FloatArray, IntArray
from repro.utils.timers import Stopwatch

__all__ = ["AnytimeRun", "BatchOutcome", "Allocator", "per_request_rejections"]


def per_request_rejections(
    assignment: IntArray,
    merged: Request,
    owner: IntArray,
    constraints: ConstraintSet,
) -> BoolArray:
    """Rejected-request mask for a merged batch.

    Parameters
    ----------
    assignment:
        Flat genome over the merged request (UNPLACED allowed).
    merged:
        The merged request (resources of all batch members).
    owner:
        (n,) map from merged resource index to batch request index.
    constraints:
        The merged instance's constraint set.

    Returns
    -------
    Boolean vector over batch requests; True = rejected.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    owner = np.asarray(owner, dtype=np.int64)
    n_requests = int(owner.max()) + 1 if owner.size else 0
    rejected = np.zeros(n_requests, dtype=bool)

    # A request is rejected by its unplaced resources, its resources on
    # overloaded servers and its violated groups: one usage row and one
    # row of group counts.
    population = assignment[None, :]
    capacity = constraints.capacity
    overloaded = (capacity.batch_usage(population)[0] > capacity.threshold).any(axis=1)
    # An UNPLACED gene reads the last server here; it rejects anyway.
    rejected[owner[(assignment == UNPLACED) | overloaded[assignment]]] = True
    if merged.groups:
        violated = constraints.batch_group_violations(population)[0] > 0
        leaders = np.array([group.members[0] for group in merged.groups])
        rejected[owner[leaders[violated]]] = True
    return rejected


@dataclass
class BatchOutcome:
    """What one algorithm did with one window of requests.

    Attributes
    ----------
    algorithm:
        Label used in figures ("nsga3_tabu", "round_robin", ...).
    assignment:
        Flat genome over the merged request (UNPLACED where rejected).
    accepted:
        Per-batch-request acceptance mask.
    violations:
        Total constraint violations of the returned allocation.
    violation_breakdown:
        Violations keyed by constraint name.
    objectives:
        (3,) objective vector of the returned allocation (Eq. 22/23/26).
    elapsed:
        Wall-clock seconds the algorithm spent.
    evaluations:
        Objective evaluations consumed (0 for non-EA algorithms).
    extra:
        Algorithm-specific diagnostics (CP node counts, repair moves...).
    """

    algorithm: str
    assignment: IntArray
    accepted: BoolArray
    violations: int
    violation_breakdown: dict[str, int]
    objectives: FloatArray
    elapsed: float
    evaluations: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def n_requests(self) -> int:
        """Batch size."""
        return int(self.accepted.shape[0])

    @property
    def rejection_rate(self) -> float:
        """Fraction of batch requests rejected (Figure 9's y-axis)."""
        if self.accepted.size == 0:
            return 0.0
        return float(1.0 - self.accepted.mean())

    @property
    def provider_cost(self) -> float:
        """Usage + operating cost of the allocation (Figure 11's y-axis)."""
        return float(self.objectives[0])


class AnytimeRun(abc.ABC):
    """One in-progress solve exposing the anytime contract.

    Obtained from :meth:`Allocator.start`.  The owner advances the run
    in bounded slices with :meth:`step` and may read
    :meth:`best_solution` / :meth:`best_front` *between any two steps*
    — both are required to be valid (possibly trivial) at every
    instant, which is what lets a portfolio racer or a deadline-bound
    service interrupt the solve at an arbitrary epoch and still ship a
    plan.  :meth:`finish` freezes the run into the same
    :class:`BatchOutcome` the blocking :meth:`Allocator.allocate` path
    reports, so downstream reporting is oblivious to how the solve was
    driven.
    """

    def __init__(
        self,
        allocator: "Allocator",
        infrastructure: Infrastructure,
        merged: Request,
        owner: IntArray,
        base_usage: FloatArray | None = None,
        previous_assignment: IntArray | None = None,
        compiled: CompiledProblem | None = None,
    ) -> None:
        self.allocator = allocator
        self.infrastructure = infrastructure
        self.merged = merged
        self.owner = owner
        self.base_usage = base_usage
        self.previous_assignment = previous_assignment
        if compiled is None:
            compiled = allocator.compile_problem(infrastructure, merged)
        self.compiled = compiled
        #: Objective evaluations consumed so far; implementations keep
        #: this current so :meth:`finish` reports honestly.
        self.evaluations = 0
        self.stopwatch = Stopwatch().start()
        self._outcome: BatchOutcome | None = None
        self._front_eval = None

    # -- the contract ---------------------------------------------------
    @abc.abstractmethod
    def step(self, budget: int = 1) -> bool:
        """Advance by ``budget`` work units; False = nothing left to do.

        A *work unit* is implementation-defined (an EA generation, a
        block of tabu iterations, one CP sub-problem) but must be
        bounded, so the caller controls slice length.
        """

    @abc.abstractmethod
    def best_solution(self) -> IntArray:
        """Current incumbent genome (UNPLACED allowed), at any instant."""

    def best_front(self) -> FloatArray:
        """(k, 3) objective rows of the current nondominated incumbents.

        The default scores :meth:`best_solution` through the shared
        compiled evaluator — a one-point front.  Population-based runs
        override this with their true front.
        """
        if self._front_eval is None:
            self._front_eval = self.compiled.evaluator(
                base_usage=self.base_usage,
                previous_assignment=self.previous_assignment,
                include_assignment_constraint=True,
                energy_weight=self.allocator.energy_weight,
            )
        point = self._front_eval.evaluate(self.best_solution()).as_array()
        return point[np.newaxis, :]

    def finish(self) -> BatchOutcome:
        """Freeze the run into a :class:`BatchOutcome` (idempotent).

        Does *not* drain remaining work — it reports whatever the steps
        taken so far produced.  Callers wanting the full batch result
        loop ``while run.step(): pass`` first.
        """
        if self._outcome is None:
            self.stopwatch.stop()
            self._outcome = self._finalize()
        return self._outcome

    def set_deadline(self, deadline: float) -> None:
        """Absolute ``time.perf_counter()`` deadline hint (no-op here).

        Implementations owning inner loops that can overshoot a step
        budget (tabu repair rounds, CP node search) propagate this so a
        wall-clock-bound caller is never stuck inside one slice.
        """

    def close(self) -> None:
        """Release per-run resources (no-op here; safe to repeat)."""

    # -- hooks ----------------------------------------------------------
    def _finalize(self) -> BatchOutcome:
        """Build the outcome; runs once, from :meth:`finish`."""
        return self.allocator.finalize(
            self.infrastructure,
            self.merged,
            self.owner,
            self.best_solution(),
            self.stopwatch.stop(),
            base_usage=self.base_usage,
            previous_assignment=self.previous_assignment,
            evaluations=self.evaluations,
            extra=self._extra(),
            compiled=self.compiled,
        )

    def _extra(self) -> dict | None:
        """Algorithm-specific diagnostics for the outcome (hook)."""
        return None


class _BatchStepRun(AnytimeRun):
    """Degenerate anytime run: the whole solve is one step.

    Wraps any blocking :meth:`Allocator.allocate` implementation —
    greedy and round-robin baselines finish in microseconds, so slicing
    them buys nothing.  Before the first step the incumbent is the
    everything-unplaced genome (a valid, maximally-rejecting plan).
    """

    def __init__(
        self,
        allocator: "Allocator",
        infrastructure: Infrastructure,
        requests: Sequence[Request],
        base_usage: FloatArray | None = None,
        previous_assignment: IntArray | None = None,
    ) -> None:
        merged, owner = Allocator.merge_requests(requests)
        super().__init__(
            allocator,
            infrastructure,
            merged,
            owner,
            base_usage=base_usage,
            previous_assignment=previous_assignment,
        )
        self._requests = list(requests)

    def step(self, budget: int = 1) -> bool:
        if self._outcome is None:
            self.stopwatch.stop()
            self._outcome = self.allocator.allocate(
                self.infrastructure,
                self._requests,
                base_usage=self.base_usage,
                previous_assignment=self.previous_assignment,
            )
            self.evaluations = self._outcome.evaluations
        return False

    def best_solution(self) -> IntArray:
        if self._outcome is None:
            return np.full(self.merged.n, UNPLACED, dtype=np.int64)
        return self._outcome.assignment

    def finish(self) -> BatchOutcome:
        if self._outcome is None:
            self.step()
        return self._outcome


class Allocator(abc.ABC):
    """Base class every compared algorithm implements."""

    #: Label used in reports and figures.
    name: str = "allocator"
    #: Which of the paper's algorithm families this is.
    kind: AlgorithmKind | None = None
    #: Compilation cache shared across windows.  The scheduler injects
    #: one so repeated solves of the same (infrastructure, request)
    #: instance reuse the compiled facts; standalone use lazily creates
    #: a private cache on first :meth:`compile_problem` call.
    problem_cache: ProblemCache | None = None
    #: Intra-run parallel execution engine (a worker pool for tabu
    #: repair).  ``None`` = serial.  The scheduler can inject one so
    #: the pool persists across windows; EA allocators also create one
    #: lazily when their config asks for workers.  Whoever triggered
    #: creation should call :meth:`close` when done.
    execution_engine: ParallelEngine | None = None
    #: Checkpoint store for crash-safe runs.  ``None`` = no snapshots
    #: (EA allocators still honor ``NSGAConfig.checkpoint_dir`` on
    #: their own).  The scheduler injects one so every window's run
    #: checkpoints into a single campaign directory, stamped with the
    #: window index.  Non-EA allocators ignore it: their solves are
    #: single-pass and cheap to redo.
    checkpoint_manager: CheckpointManager | None = None
    #: Weight of the optional energy term folded into the provider-cost
    #: objective (column 0).  0.0 — the default everywhere — keeps the
    #: evaluation stack byte-identical to the paper's three-objective
    #: formulation; EA allocators override from ``NSGAConfig``.
    energy_weight: float = 0.0

    @abc.abstractmethod
    def allocate(
        self,
        infrastructure: Infrastructure,
        requests: Sequence[Request],
        base_usage: FloatArray | None = None,
        previous_assignment: IntArray | None = None,
    ) -> BatchOutcome:
        """Place one window of requests and report uniformly."""

    def start(
        self,
        infrastructure: Infrastructure,
        requests: Sequence[Request],
        base_usage: FloatArray | None = None,
        previous_assignment: IntArray | None = None,
    ) -> AnytimeRun:
        """Begin an anytime solve of one window.

        The default wraps :meth:`allocate` in a single-step run, which
        is exactly right for the sub-millisecond greedy baselines.
        Iterative allocators override this with genuinely incremental
        runs (generation-, iteration- or subproblem-granular).
        """
        return _BatchStepRun(
            self,
            infrastructure,
            requests,
            base_usage=base_usage,
            previous_assignment=previous_assignment,
        )

    def runtime_state(self) -> dict | None:
        """JSON-able cross-call state, for scheduler checkpoints.

        Stateless allocators (each ``allocate`` call independent)
        return ``None`` — the default.  Allocators carrying state
        across windows (round-robin's rotation pointer, a greedy
        tie-break RNG) override this and :meth:`restore_runtime_state`
        so a resumed scheduler continues byte-identically.  EA
        trajectory state is *not* captured here; that lives in the EA's
        own :class:`~repro.runtime.checkpoint.RunCheckpoint`.
        """
        return None

    def restore_runtime_state(self, state: dict) -> None:
        """Restore state captured by :meth:`runtime_state` (no-op here)."""

    # ------------------------------------------------------------------
    # Shared helpers for implementations
    # ------------------------------------------------------------------
    @staticmethod
    def merge_requests(requests: Sequence[Request]) -> tuple[Request, IntArray]:
        """Concatenate the window into one instance + ownership map."""
        return Request.concatenate(list(requests))

    def compile_problem(
        self, infrastructure: Infrastructure, request: Request
    ) -> CompiledProblem:
        """The cached compilation of one instance.

        Uses :attr:`problem_cache` (injected by the scheduler, or
        lazily created per allocator), so re-solving an already-seen
        instance — across windows, reoptimize passes or repeated
        ``allocate`` calls — skips the compile step entirely.
        """
        cache = self.problem_cache
        if cache is None:
            cache = self.problem_cache = ProblemCache()
        return cache.get(infrastructure, request)

    def close(self) -> None:
        """Release the execution engine (its worker pool), if any.

        Safe to call repeatedly; allocators without an engine are
        unaffected.  Serial operation continues to work afterwards.
        """
        engine = self.execution_engine
        if engine is not None:
            engine.close()
            self.execution_engine = None

    def finalize(
        self,
        infrastructure: Infrastructure,
        merged: Request,
        owner: IntArray,
        assignment: IntArray,
        elapsed: float,
        base_usage: FloatArray | None = None,
        previous_assignment: IntArray | None = None,
        evaluations: int = 0,
        extra: dict | None = None,
        compiled: CompiledProblem | None = None,
    ) -> BatchOutcome:
        """Uniform post-processing: violations, objectives, rejections."""
        if compiled is None:
            compiled = self.compile_problem(infrastructure, merged)
        evaluator = compiled.evaluator(
            base_usage=base_usage,
            previous_assignment=previous_assignment,
            include_assignment_constraint=True,
            energy_weight=self.energy_weight,
        )
        assignment = np.asarray(assignment, dtype=np.int64)
        objectives = evaluator.evaluate(assignment).as_array()
        breakdown = evaluator.constraints.breakdown(assignment)
        # Unplaced resources are *rejections* (Figure 9), not violated
        # constraints (Figure 10): a greedy/CP algorithm that declines a
        # request it cannot satisfy has violated nothing.
        unplaced = breakdown.pop("assignment", 0)
        breakdown["unplaced"] = unplaced
        violations = int(sum(v for k, v in breakdown.items() if k != "unplaced"))
        accepted = ~per_request_rejections(
            assignment, merged, owner, evaluator.constraints
        )
        return BatchOutcome(
            algorithm=self.name,
            assignment=assignment,
            accepted=accepted,
            violations=violations,
            violation_breakdown=breakdown,
            objectives=objectives,
            elapsed=float(elapsed),
            evaluations=int(evaluations),
            extra=extra or {},
        )
