"""Shared NSGA engine: the generational loop of the paper's Figure 3.

Initialization → evaluation (with optional repair) → mating selection →
SBX crossover → PM mutation → evaluation → environmental selection,
until the evaluation budget (Table III: 10 000) or the time limit is
exhausted.  :class:`NSGA2` and :class:`NSGA3` supply the two pieces
that differ: mating selection and the splitting of the last partial
front (crowding distance vs. reference-point niching).
"""

from __future__ import annotations

import abc
import dataclasses
import time

import numpy as np

from repro.ea.config import NSGAConfig
from repro.ea.constraint_handling import ConstraintHandler, NoHandling
from repro.ea.encoding import random_population
from repro.ea.operators.polynomial import polynomial_mutation
from repro.ea.operators.sbx import sbx_crossover
from repro.ea.population import Population
from repro.ea.result import EvolutionResult, GenerationStats
from repro.ea.sorting import fast_non_dominated_sort
from repro.errors import CheckpointError
from repro.objectives.evaluator import PopulationEvaluator
from repro.objectives.preference import active_preference
from repro.runtime.checkpoint import CheckpointManager, RunCheckpoint, trajectory_key
from repro.runtime.signals import shutdown_requested
from repro.telemetry import GenerationCompleted, get_bus, get_registry, span
from repro.types import FloatArray, IntArray
from repro.utils.timers import Stopwatch

#: Default generations between snapshots when checkpointing is enabled
#: without an explicit ``checkpoint_every``.
DEFAULT_CHECKPOINT_EVERY = 10

__all__ = ["EngineRun", "NSGABase"]


class EngineRun:
    """One in-progress NSGA run, advanced generation by generation.

    Created by :meth:`NSGABase.start_run`.  Owns every piece of loop
    state the old monolithic ``run()`` kept in locals — population,
    RNG, stall counter, stopwatch, checkpoint bookkeeping — and exposes
    the anytime surface the portfolio racer needs: :meth:`step`,
    :meth:`best_genome` / :meth:`front` between any two steps, a
    deterministic :meth:`inject` for incumbent exchange, and
    :meth:`checkpoint_record` for composite snapshots.  Driving a run
    with ``while run.step(): pass`` then :meth:`result` is
    byte-identical to the blocking :meth:`NSGABase.run`, which now does
    exactly that.
    """

    def __init__(
        self,
        engine: "NSGABase",
        evaluator: PopulationEvaluator,
        initial_genomes: IntArray | None = None,
        *,
        checkpoint_manager: CheckpointManager | None = None,
        fingerprint: str = "",
        resume_from: RunCheckpoint | None = None,
    ) -> None:
        self.engine = engine
        self.evaluator = evaluator
        cfg = engine.config
        self.rng = np.random.default_rng(cfg.seed)
        self.n = evaluator.request.n
        self.m = evaluator.infrastructure.m

        manager = checkpoint_manager
        if manager is None and cfg.checkpoint_dir is not None:
            manager = CheckpointManager(cfg.checkpoint_dir)
        self.manager = manager
        self.checkpoint_every = cfg.checkpoint_every or DEFAULT_CHECKPOINT_EVERY
        self.fingerprint = fingerprint
        # The handler tag keeps algorithms sharing an engine (plain
        # NSGA-III vs the tabu/CP hybrids) from colliding in a shared
        # campaign directory.
        order = active_preference()
        self.config_key = trajectory_key(
            cfg,
            f"{engine.algorithm_name}/{engine.handler.trajectory_tag()}",
            preference=None if order is None else order.spec,
        )
        if resume_from is None and manager is not None:
            resume_from = manager.latest(fingerprint, self.config_key)

        # Resolved once per run: with the default no-op bus the per-
        # generation telemetry below is a single boolean check.
        self._bus = get_bus()
        self._registry = get_registry()

        self.history: list[GenerationStats] = []
        self.resumed_from: int | None = None
        self.interrupted = False
        self._result: EvolutionResult | None = None
        self._exhausted = False

        if resume_from is not None:
            ckpt = engine._validate_checkpoint(
                resume_from, self.config_key, fingerprint, self.n
            )
            self.population = Population(
                ckpt.genomes.copy(), ckpt.objectives.copy(), ckpt.violations.copy()
            )
            self.rng.bit_generator.state = ckpt.rng_state
            self.generation = ckpt.generation
            self.evaluations = ckpt.evaluations
            self.stalled = ckpt.stalled
            self.best_seen = (ckpt.best_violations, ckpt.best_aggregate)
            engine.handler.restore_runtime_state(ckpt.repair_state)
            if engine.track_history:
                self.history = [GenerationStats(**h) for h in ckpt.history]
            self.resumed_from = ckpt.generation
            self.stopwatch = Stopwatch(elapsed=ckpt.elapsed).start()
            self._registry.count(
                "runtime.resume.runs", algorithm=engine.algorithm_name
            )
            if cfg.time_limit is not None:
                engine.handler.set_deadline(
                    time.perf_counter() + cfg.time_limit - ckpt.elapsed
                )
        else:
            self.stopwatch = Stopwatch().start()
            if cfg.time_limit is not None:
                engine.handler.set_deadline(time.perf_counter() + cfg.time_limit)
            self.evaluations = 0

            genomes = random_population(
                cfg.population_size, self.n, self.m, seed=self.rng
            )
            if initial_genomes is not None:
                seeds = np.asarray(initial_genomes, dtype=np.int64)
                if seeds.ndim == 1:
                    seeds = seeds[None, :]
                if seeds.shape[1] != self.n:
                    raise ValueError(
                        f"initial genomes have length {seeds.shape[1]}, "
                        f"instance needs {self.n}"
                    )
                count = min(seeds.shape[0], cfg.population_size)
                genomes[:count] = seeds[:count]
            genomes = engine.handler.prepare(genomes)
            result = evaluator.evaluate_population(genomes)
            self.evaluations += cfg.population_size
            self.population = Population(
                genomes, result.objectives, result.violations
            )

            self.generation = 0
            if engine.track_history:
                self.history.append(
                    engine._stats(self.generation, self.evaluations, self.population)
                )
            if self._bus.enabled:
                self._bus.emit(
                    engine._generation_event(
                        self.generation, self.evaluations, self.population
                    )
                )

            self.best_seen = self._incumbent(self.population)
            self.stalled = 0

        self._last_saved = (
            self.resumed_from if self.resumed_from is not None else -1
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _incumbent(pop: Population) -> tuple[int, float]:
        """(violations, aggregate) of the current single-solution pick —
        the quantity the stall detector watches."""
        idx = pop.best_feasible_index()
        if idx is None:
            idx = pop.least_violating_index()
        return int(pop.violations[idx]), float(pop.objectives[idx].sum())

    def _stop_reason(self) -> str | None:
        """Why the loop may not advance further, in the loop's own
        check order (budget, wall clock, stall) — ``None`` = keep going."""
        cfg = self.engine.config
        if self.evaluations + cfg.population_size > cfg.max_evaluations:
            return "budget"
        if cfg.time_limit is not None and self.stopwatch.elapsed >= cfg.time_limit:
            return "time"
        if (
            cfg.stall_generations is not None
            and self.stalled >= cfg.stall_generations
        ):
            return "stall"
        return None

    def _snapshot(self) -> None:
        if self.generation == self._last_saved:
            return
        self.manager.save(
            self.engine._build_checkpoint(
                fingerprint=self.fingerprint,
                config_key=self.config_key,
                generation=self.generation,
                evaluations=self.evaluations,
                elapsed=self.stopwatch.elapsed,
                population=self.population,
                rng=self.rng,
                stalled=self.stalled,
                best_seen=self.best_seen,
                history=self.history,
            )
        )
        self._last_saved = self.generation

    def _advance(self) -> None:
        """Exactly one generation — the body of the old ``run()`` loop."""
        engine = self.engine
        cfg = engine.config
        self.generation += 1

        with span(
            f"{engine.algorithm_name}.generation", generation=self.generation
        ):
            eff = engine.handler.effective_objectives(
                self.population.objectives, self.population.violations
            )
            parent_idx = engine._select_parents(self.population, eff, self.rng)
            parents = self.population.genomes[parent_idx]

            # Fig. 4: parents violating user constraints are treated
            # by the repair before they reproduce.
            parents = engine.handler.prepare(parents)

            offspring = engine._variation(parents, self.m, self.rng)
            # "The repair process is launched whenever invalid
            # individuals are assessed" — repair before evaluation.
            offspring = engine.handler.prepare(offspring)

            off_result = self.evaluator.evaluate_population(offspring)
            self.evaluations += offspring.shape[0]
            off_pop = Population(
                offspring, off_result.objectives, off_result.violations
            )

            merged = Population.concatenate(self.population, off_pop)
            survivors = engine._environmental_selection(
                merged, cfg.population_size, self.rng
            )
            self.population = merged.take(survivors)

        if self._bus.enabled:
            self._bus.emit(
                engine._generation_event(
                    self.generation, self.evaluations, self.population
                )
            )

        current = self._incumbent(self.population)
        if current < self.best_seen:
            self.best_seen = current
            self.stalled = 0
        else:
            self.stalled += 1

        if engine.track_history:
            self.history.append(
                engine._stats(self.generation, self.evaluations, self.population)
            )

        if self.manager is not None and self.generation % self.checkpoint_every == 0:
            self._snapshot()

    # ------------------------------------------------------------------
    # Anytime surface
    # ------------------------------------------------------------------
    def step(self, generations: int = 1) -> bool:
        """Advance up to ``generations``; False = the run is over.

        Preserves the blocking loop's exact check order: budget, then
        wall clock, then stall, then cooperative shutdown (which
        snapshots the boundary before unwinding) — so interleaving
        steps with reads cannot change the trajectory.
        """
        if self._exhausted:
            return False
        for _ in range(int(generations)):
            if self._stop_reason() is not None:
                self._exhausted = True
                return False
            if self.manager is not None and shutdown_requested():
                # Graceful flush: persist the boundary we stand on and
                # unwind; the next start auto-resumes from here.
                self._snapshot()
                self.interrupted = True
                self._exhausted = True
                return False
            self._advance()
        return self._stop_reason() is None

    def best_genome(self) -> IntArray:
        """Current single-solution pick — valid between any two steps.

        The deployed pick among feasible individuals
        (:meth:`Population.best_feasible_index`), least violating as
        the infeasible fallback.
        """
        pop = self.population
        idx = pop.best_feasible_index()
        if idx is None:
            idx = pop.least_violating_index()
        return pop.genomes[idx].copy()

    def front(self) -> tuple[IntArray, FloatArray]:
        """(genomes, objectives) of the feasible nondominated set.

        Empty arrays when nothing is feasible yet — the incumbent pool
        only trades in proven placements.
        """
        from repro.utils.pareto import pareto_front_indices

        pop = self.population
        feasible = np.flatnonzero(pop.feasible_mask)
        if not feasible.size:
            return (
                np.empty((0, self.n), dtype=np.int64),
                np.empty((0, pop.objectives.shape[1])),
            )
        front_local = pareto_front_indices(pop.objectives[feasible])
        picked = feasible[front_local]
        return pop.genomes[picked].copy(), pop.objectives[picked].copy()

    def inject(
        self,
        genomes: IntArray,
        objectives: FloatArray,
        violations: IntArray,
    ) -> int:
        """Replace the worst population rows with pooled incumbents.

        Deterministic by construction — victims are picked by lexsort
        on (violations, aggregate) from the worst end, rows already
        present byte-for-byte are skipped, and no RNG is consumed — so
        exchange epochs at fixed boundaries keep whole-portfolio runs
        byte-reproducible per seed.  The pooled rows carry their own
        objectives/violations, so injection costs zero evaluations.
        Returns the number of rows actually replaced.
        """
        genomes = np.asarray(genomes, dtype=np.int64)
        if genomes.size == 0:
            return 0
        if genomes.ndim == 1:
            genomes = genomes[None, :]
        objectives = np.asarray(objectives, dtype=np.float64)
        if objectives.ndim == 1:
            objectives = objectives[None, :]
        violations = np.atleast_1d(np.asarray(violations, dtype=np.int64))

        pop = self.population
        # Worst-first victim order: most violating, ties by aggregate.
        order = np.lexsort(
            (pop.objectives.sum(axis=1), pop.violations)
        )[::-1]
        existing = {row.tobytes() for row in pop.genomes}
        new_genomes = pop.genomes.copy()
        new_objectives = pop.objectives.copy()
        new_violations = pop.violations.copy()
        replaced = 0
        for row, objs, viol in zip(genomes, objectives, violations):
            key = row.tobytes()
            if key in existing:
                continue
            if replaced >= order.size:
                break
            victim = int(order[replaced])
            new_genomes[victim] = row
            new_objectives[victim] = objs
            new_violations[victim] = int(viol)
            existing.add(key)
            replaced += 1
        if replaced:
            self.population = Population(
                new_genomes, new_objectives, new_violations
            )
        return replaced

    def set_deadline(self, deadline: float) -> None:
        """Propagate an absolute perf-counter deadline to inner loops."""
        self.engine.handler.set_deadline(deadline)

    def checkpoint_record(self) -> RunCheckpoint:
        """The run's current boundary state as a :class:`RunCheckpoint`
        (no manager required) — composite portfolio snapshots embed it."""
        return self.engine._build_checkpoint(
            fingerprint=self.fingerprint,
            config_key=self.config_key,
            generation=self.generation,
            evaluations=self.evaluations,
            elapsed=self.stopwatch.elapsed,
            population=self.population,
            rng=self.rng,
            stalled=self.stalled,
            best_seen=self.best_seen,
            history=self.history,
        )

    def result(self) -> EvolutionResult:
        """Freeze the run into an :class:`EvolutionResult` (idempotent)."""
        if self._result is None:
            self._exhausted = True
            self.stopwatch.stop()
            self._registry.count(
                "nsga.generations",
                self.generation,
                algorithm=self.engine.algorithm_name,
            )
            self._registry.count(
                "nsga.evaluations",
                self.evaluations,
                algorithm=self.engine.algorithm_name,
            )
            self._registry.observe(
                "nsga.run_seconds",
                self.stopwatch.elapsed,
                algorithm=self.engine.algorithm_name,
            )
            self._result = EvolutionResult(
                population=self.population,
                evaluations=self.evaluations,
                elapsed=self.stopwatch.elapsed,
                history=self.history,
                algorithm=self.engine.algorithm_name,
                resumed_from=self.resumed_from,
                interrupted=self.interrupted,
            )
        return self._result


class NSGABase(abc.ABC):
    """Template-method NSGA engine.

    Parameters
    ----------
    config:
        Hyper-parameters (defaults = Table III).
    handler:
        Constraint-handling strategy; default is the *unmodified*
        behaviour (constraints ignored), matching the paper's
        "unmodified NSGA-II / NSGA-III" baselines.
    track_history:
        Record per-generation :class:`GenerationStats`.
    """

    algorithm_name = "nsga"

    def __init__(
        self,
        config: NSGAConfig | None = None,
        handler: ConstraintHandler | None = None,
        track_history: bool = False,
    ) -> None:
        self.config = config or NSGAConfig()
        self.handler = handler or NoHandling()
        self.track_history = bool(track_history)

    # ------------------------------------------------------------------
    # Subclass responsibilities
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _select_parents(
        self,
        population: Population,
        effective_objectives: FloatArray,
        rng: np.random.Generator,
    ) -> IntArray:
        """Indices of ``population_size`` parents for variation."""

    @abc.abstractmethod
    def _split_last_front(
        self,
        effective_objectives: FloatArray,
        confirmed: IntArray,
        last_front: IntArray,
        n_select: int,
        rng: np.random.Generator,
    ) -> IntArray:
        """Choose ``n_select`` members of the partial front."""

    # ------------------------------------------------------------------
    # Variation (overridable: the operator-ablation bench swaps this)
    # ------------------------------------------------------------------
    def _variation(
        self, parents: IntArray, n_servers: int, rng: np.random.Generator
    ) -> IntArray:
        """SBX crossover followed by polynomial mutation (the paper's
        "SBX and PM standard"), with Table III rates."""
        cfg = self.config
        offspring = sbx_crossover(
            parents,
            n_servers=n_servers,
            rate=cfg.sbx_rate,
            eta=cfg.sbx_distribution_index,
            seed=rng,
        )
        return polynomial_mutation(
            offspring,
            n_servers=n_servers,
            rate=cfg.pm_rate,
            eta=cfg.pm_distribution_index,
            seed=rng,
        )

    # ------------------------------------------------------------------
    # Environmental selection (shared)
    # ------------------------------------------------------------------
    def _environmental_selection(
        self,
        merged: Population,
        n_survive: int,
        rng: np.random.Generator,
    ) -> IntArray:
        """Pick survivor indices from the merged parent+offspring pool."""
        eff = self.handler.effective_objectives(merged.objectives, merged.violations)

        if self.handler.uses_feasibility_tiers:
            feasible = np.flatnonzero(merged.violations == 0)
            infeasible = np.flatnonzero(merged.violations != 0)
        else:
            feasible = np.arange(len(merged))
            infeasible = np.empty(0, dtype=np.int64)

        chosen: list[np.ndarray] = []
        remaining = n_survive

        if feasible.size:
            ranks = fast_non_dominated_sort(eff[feasible])
            for front_id in range(int(ranks.max()) + 1):
                front = feasible[ranks == front_id]
                if front.size <= remaining:
                    chosen.append(front)
                    remaining -= front.size
                    if remaining == 0:
                        break
                else:
                    confirmed = (
                        np.concatenate(chosen)
                        if chosen
                        else np.empty(0, dtype=np.int64)
                    )
                    picked = self._split_last_front(
                        eff, confirmed, front, remaining, rng
                    )
                    chosen.append(np.asarray(picked, dtype=np.int64))
                    remaining = 0
                    break

        if remaining > 0 and infeasible.size:
            # Feasibility-first fill: least-violating individuals, ties
            # broken by aggregate effective cost.
            order = np.lexsort(
                (eff[infeasible].sum(axis=1), merged.violations[infeasible])
            )
            take = infeasible[order[:remaining]]
            chosen.append(take)
            remaining -= take.size

        survivors = (
            np.concatenate(chosen) if chosen else np.empty(0, dtype=np.int64)
        )
        if survivors.size != n_survive:
            raise RuntimeError(
                f"environmental selection produced {survivors.size} survivors, "
                f"expected {n_survive}"
            )
        return survivors

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(
        self,
        evaluator: PopulationEvaluator,
        initial_genomes: IntArray | None = None,
        *,
        checkpoint_manager: CheckpointManager | None = None,
        fingerprint: str = "",
        resume_from: RunCheckpoint | None = None,
    ) -> EvolutionResult:
        """Optimize one allocation instance and return the final state.

        Parameters
        ----------
        evaluator:
            The problem instance wrapper.
        initial_genomes:
            Optional warm start: up to ``population_size`` genomes
            (e.g. a greedy seed, or the previous window's solution for
            reconfiguration runs).  Fewer rows are topped up with
            random genomes; extra rows are ignored (and the whole
            argument is, when the run resumes from a checkpoint).
        checkpoint_manager:
            Checkpoint store override; when ``None`` and the config
            carries ``checkpoint_dir``, a manager over that directory
            is created here.
        fingerprint:
            :class:`~repro.engine.CompiledProblem` fingerprint of the
            instance — the staleness key checkpoints are matched on.
        resume_from:
            Explicit checkpoint to restore.  Without it, a manager
            auto-resumes from the newest compatible checkpoint in its
            directory (none found = fresh start).  An explicit
            checkpoint whose fingerprint or trajectory key disagrees
            with this run raises
            :class:`~repro.errors.CheckpointError`.
        """
        run = self.start_run(
            evaluator,
            initial_genomes,
            checkpoint_manager=checkpoint_manager,
            fingerprint=fingerprint,
            resume_from=resume_from,
        )
        while run.step():
            pass
        return run.result()

    def start_run(
        self,
        evaluator: PopulationEvaluator,
        initial_genomes: IntArray | None = None,
        *,
        checkpoint_manager: CheckpointManager | None = None,
        fingerprint: str = "",
        resume_from: RunCheckpoint | None = None,
    ) -> EngineRun:
        """Begin a stepwise run; see :class:`EngineRun`.

        Takes the same arguments as :meth:`run` — initialization (or
        checkpoint resume) happens here, including the evaluation of
        generation 0, so :meth:`EngineRun.best_genome` is meaningful
        before the first :meth:`EngineRun.step`.
        """
        return EngineRun(
            self,
            evaluator,
            initial_genomes,
            checkpoint_manager=checkpoint_manager,
            fingerprint=fingerprint,
            resume_from=resume_from,
        )

    # ------------------------------------------------------------------
    # Checkpoint plumbing
    # ------------------------------------------------------------------
    def _validate_checkpoint(
        self,
        ckpt: RunCheckpoint,
        config_key: str,
        fingerprint: str,
        n: int,
    ) -> RunCheckpoint:
        """Reject checkpoints that cannot continue *this* run."""
        if fingerprint and ckpt.fingerprint and ckpt.fingerprint != fingerprint:
            raise CheckpointError(
                "checkpoint belongs to a different problem instance "
                f"(fingerprint {ckpt.fingerprint[:12]}... != "
                f"{fingerprint[:12]}...); the scenario changed since the "
                "checkpoint was written"
            )
        if ckpt.config_key != config_key:
            raise CheckpointError(
                "checkpoint was written under a different search "
                f"configuration (trajectory key {ckpt.config_key[:8]}... != "
                f"{config_key[:8]}...)"
            )
        expected = (self.config.population_size, n)
        if tuple(ckpt.genomes.shape) != expected:
            raise CheckpointError(
                f"checkpoint population shape {tuple(ckpt.genomes.shape)} "
                f"does not match this instance {expected}"
            )
        return ckpt

    def _build_checkpoint(
        self,
        *,
        fingerprint: str,
        config_key: str,
        generation: int,
        evaluations: int,
        elapsed: float,
        population: Population,
        rng: np.random.Generator,
        stalled: int,
        best_seen: tuple[int, float],
        history: list[GenerationStats],
    ) -> RunCheckpoint:
        """Capture the loop state right after a completed generation."""
        return RunCheckpoint(
            algorithm=self.algorithm_name,
            fingerprint=fingerprint,
            config_key=config_key,
            generation=generation,
            evaluations=evaluations,
            elapsed=elapsed,
            genomes=population.genomes.copy(),
            objectives=population.objectives.copy(),
            violations=population.violations.copy(),
            rng_state=rng.bit_generator.state,
            stalled=stalled,
            best_violations=best_seen[0],
            best_aggregate=best_seen[1],
            repair_state=self.handler.runtime_state(),
            history=tuple(
                dataclasses.asdict(stats) for stats in history
            ),
        )

    # ------------------------------------------------------------------
    def _generation_event(
        self, generation: int, evaluations: int, population: Population
    ) -> GenerationCompleted:
        stats = self._stats(generation, evaluations, population)
        return GenerationCompleted(
            algorithm=self.algorithm_name,
            generation=stats.generation,
            evaluations=stats.evaluations,
            best_aggregate=stats.best_aggregate,
            mean_aggregate=stats.mean_aggregate,
            feasible_fraction=stats.feasible_fraction,
            min_violations=stats.min_violations,
        )

    @staticmethod
    def _stats(
        generation: int, evaluations: int, population: Population
    ) -> GenerationStats:
        aggregate = population.objectives.sum(axis=1)
        return GenerationStats(
            generation=generation,
            evaluations=evaluations,
            best_aggregate=float(aggregate.min()),
            mean_aggregate=float(aggregate.mean()),
            feasible_fraction=float(population.feasible_mask.mean()),
            min_violations=int(population.violations.min()),
        )
