"""NSGA-based allocators behind the uniform :class:`Allocator` interface.

Each allocator merges the window into one instance, builds the
appropriate constraint handler, runs the engine for the configured
evaluation budget (Table III defaults) and returns the paper's
single-solution pick (feasible individual closest to the normalized
ideal point, else the least-violating one).
"""

from __future__ import annotations

from typing import Sequence

from repro.allocator import Allocator, AnytimeRun, BatchOutcome
from repro.cp.search import SearchLimits
from repro.cp.solver import CPSolver
from repro.ea.config import NSGAConfig
from repro.ea.constraint_handling import (
    NoHandling,
    RepairHandling,
)
from repro.ea.nsga2 import NSGA2
from repro.ea.nsga3 import NSGA3
from repro.engine.parallel import ParallelEngine
from repro.model.infrastructure import Infrastructure
from repro.model.request import Request
from repro.tabu.repair import TabuRepair
from repro.types import AlgorithmKind, FloatArray, IntArray

__all__ = [
    "NSGA2Allocator",
    "NSGA3Allocator",
    "NSGA3TabuAllocator",
    "NSGA3CPAllocator",
]


class _NSGAAnytimeRun(AnytimeRun):
    """Generation-granular anytime EA solve.

    Wraps an :class:`~repro.ea.nsga_base.EngineRun`: one work unit =
    one generation, the incumbent is the population's paper pick
    (feasible-closest-to-ideal, else least-violating) and
    :meth:`best_front` is the population's true feasible front rather
    than the one-point default.  The final :meth:`finish` replays the
    blocking path's tail — post-process hook, then uniform
    :meth:`Allocator.finalize` — so driving the run to exhaustion is
    byte-identical to :meth:`Allocator.allocate`.
    """

    def __init__(
        self,
        allocator: "_NSGAAllocatorBase",
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
        evaluator = self.compiled.evaluator(
            base_usage=base_usage,
            previous_assignment=previous_assignment,
            include_assignment_constraint=False,
            energy_weight=allocator.config.energy_weight,
        )
        self.engine = allocator._build_engine(
            infrastructure, merged, base_usage, self.compiled
        )
        self.run = self.engine.start_run(
            evaluator,
            checkpoint_manager=allocator.checkpoint_manager,
            fingerprint=self.compiled.fingerprint,
        )

    def step(self, budget: int = 1) -> bool:
        alive = self.run.step(budget)
        self.evaluations = self.run.evaluations
        return alive

    def best_solution(self) -> IntArray:
        return self.run.best_genome()

    def best_front(self) -> FloatArray:
        _, objectives = self.run.front()
        if objectives.shape[0] > 0:
            return objectives
        return super().best_front()

    def front(self) -> tuple[IntArray, FloatArray]:
        """(genomes, objectives) of the feasible nondominated set."""
        return self.run.front()

    def inject(
        self,
        genomes: IntArray,
        objectives: FloatArray,
        violations: IntArray,
    ) -> int:
        """Replace the population's worst rows with pooled incumbents."""
        return self.run.inject(genomes, objectives, violations)

    def set_deadline(self, deadline: float) -> None:
        self.run.set_deadline(deadline)

    def _finalize(self) -> BatchOutcome:
        result = self.run.result()
        allocator: _NSGAAllocatorBase = self.allocator
        assignment = allocator._post_process(
            result.best_genome(),
            self.infrastructure,
            self.merged,
            self.base_usage,
            self.compiled,
        )
        extra = {"generations": len(result.history)}
        handler = getattr(self.engine, "handler", None)
        if isinstance(handler, RepairHandling):
            extra["repair_calls"] = handler.repair_calls
        if result.resumed_from is not None:
            extra["resumed_from"] = result.resumed_from
        if result.interrupted:
            extra["interrupted"] = True
        return allocator.finalize(
            self.infrastructure,
            self.merged,
            self.owner,
            assignment,
            elapsed=self.stopwatch.stop(),
            base_usage=self.base_usage,
            previous_assignment=self.previous_assignment,
            evaluations=result.evaluations,
            extra=extra,
            compiled=self.compiled,
        )


class _NSGAAllocatorBase(Allocator):
    """Shared run loop for the four evolutionary allocators."""

    def __init__(self, config: NSGAConfig | None = None) -> None:
        self.config = config or NSGAConfig()
        self.energy_weight = self.config.energy_weight

    def _ensure_execution_engine(self) -> ParallelEngine | None:
        """The allocator's parallel engine, or ``None`` for serial runs.

        An engine injected from outside (e.g. by the scheduler, shared
        across windows) wins; otherwise one is created lazily when the
        config asks for workers.  The engine — and its worker pool —
        persists across ``allocate`` calls until :meth:`close`.
        """
        engine = self.execution_engine
        if engine is None and self.config.n_workers >= 1:
            engine = self.execution_engine = ParallelEngine(self.config.n_workers)
        return engine

    # Subclasses build the engine (and its handler) per instance,
    # because repair handlers need the concrete (infrastructure,
    # request, base_usage) triple.  ``compiled`` is the cached
    # compilation of the merged instance; repair engines share it so a
    # whole run compiles the instance exactly once.
    def _build_engine(
        self,
        infrastructure: Infrastructure,
        merged: Request,
        base_usage: FloatArray | None,
        compiled=None,
    ):
        raise NotImplementedError

    def _post_process(
        self,
        assignment: IntArray,
        infrastructure: Infrastructure,
        merged: Request,
        base_usage: FloatArray | None,
        compiled=None,
    ) -> IntArray:
        """Hook over the chosen solution before reporting (identity by
        default; the tabu hybrid applies one final repair pass here)."""
        return assignment

    def start(
        self,
        infrastructure: Infrastructure,
        requests: Sequence[Request],
        base_usage: FloatArray | None = None,
        previous_assignment: IntArray | None = None,
    ) -> _NSGAAnytimeRun:
        """Begin a generation-granular anytime solve."""
        return _NSGAAnytimeRun(
            self,
            infrastructure,
            requests,
            base_usage=base_usage,
            previous_assignment=previous_assignment,
        )

    def allocate(
        self,
        infrastructure: Infrastructure,
        requests: Sequence[Request],
        base_usage: FloatArray | None = None,
        previous_assignment: IntArray | None = None,
    ) -> BatchOutcome:
        """Run the configured NSGA variant; see :meth:`Allocator.allocate`."""
        run = self.start(
            infrastructure,
            requests,
            base_usage=base_usage,
            previous_assignment=previous_assignment,
        )
        while run.step():
            pass
        return run.finish()


class NSGA2Allocator(_NSGAAllocatorBase):
    """Unmodified NSGA-II: fast, but emits constraint-violating
    placements (Figure 10)."""

    name = "nsga2"
    kind = AlgorithmKind.NSGA2

    def _build_engine(self, infrastructure, merged, base_usage, compiled=None):
        return NSGA2(config=self.config, handler=NoHandling())


class NSGA3Allocator(_NSGAAllocatorBase):
    """Unmodified NSGA-III: same violation weakness, better spread."""

    name = "nsga3"
    kind = AlgorithmKind.NSGA3

    def _build_engine(self, infrastructure, merged, base_usage, compiled=None):
        return NSGA3(config=self.config, handler=NoHandling())


class NSGA3TabuAllocator(_NSGAAllocatorBase):
    """**The paper's proposed algorithm**: NSGA-III + tabu-search repair.

    Parameters
    ----------
    config:
        EA settings (Table III defaults).
    repair_rounds, tenure, order:
        Tabu repair knobs (see :class:`~repro.tabu.repair.TabuRepair`).
    """

    name = "nsga3_tabu"
    kind = AlgorithmKind.NSGA3_TABU

    def __init__(
        self,
        config: NSGAConfig | None = None,
        repair_rounds: int = 4,
        tenure: int = 64,
        order: str = "first",
    ) -> None:
        super().__init__(config)
        self.repair_rounds = repair_rounds
        self.tenure = tenure
        self.order = order

    def _build_engine(self, infrastructure, merged, base_usage, compiled=None):
        repair = TabuRepair(
            infrastructure,
            merged,
            base_usage=base_usage,
            max_rounds=self.repair_rounds,
            tenure=self.tenure,
            order=self.order,
            seed=self.config.seed,
            compiled=compiled,
            engine=self._ensure_execution_engine(),
        )
        return NSGA3(config=self.config, handler=RepairHandling(repair))

    def _post_process(self, assignment, infrastructure, merged, base_usage, compiled=None):
        # One deeper repair pass on the selected solution: under
        # reduced evaluation budgets large instances can end with a few
        # residual violations that a longer tabu walk removes cheaply.
        repair = TabuRepair(
            infrastructure,
            merged,
            base_usage=base_usage,
            max_rounds=max(32, 4 * self.repair_rounds),
            tenure=self.tenure,
            order=self.order,
            seed=self.config.seed,
            compiled=compiled,
        )
        return repair.repair_genome(assignment)


class NSGA3CPAllocator(_NSGAAllocatorBase):
    """NSGA-III with the constraint-solver repair (the weaker hybrid the
    paper also evaluates).

    Each infeasible genome is handed to a budgeted CP search seeded
    with its current genes; when the search fails within budget the
    genome passes through unrepaired — reproducing the "too weak to
    repair genes and individuals" behaviour.
    """

    name = "nsga3_cp"
    kind = AlgorithmKind.NSGA3_CONSTRAINT_SOLVER

    def __init__(
        self,
        config: NSGAConfig | None = None,
        repair_limits: SearchLimits | None = None,
    ) -> None:
        super().__init__(config)
        self.repair_limits = repair_limits or SearchLimits(
            max_nodes=2_000, time_limit=0.25
        )

    def _build_engine(self, infrastructure, merged, base_usage, compiled=None):
        solver = CPSolver(
            infrastructure,
            merged,
            base_usage=base_usage,
            limits=self.repair_limits,
            compiled=compiled,
        )
        return NSGA3(config=self.config, handler=RepairHandling(solver.repair_population))
