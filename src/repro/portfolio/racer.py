"""Anytime solver portfolio: race heterogeneous allocators to a deadline.

The paper benchmarks its algorithms head-to-head on fixed budgets; an
operator facing a wall-clock deadline wants something stronger — run
*several* of them at once, let them trade incumbents, and ship the best
plan whenever the clock expires.  :class:`PortfolioAllocator` is that
racer, built entirely on the anytime contract of
:class:`~repro.allocator.AnytimeRun`:

* members advance **round-robin** in *epochs* — one EA generation, a
  block of tabu iterations, one CP sub-problem per turn — so no member
  can starve the others;
* at fixed **exchange epochs** every member offers its incumbents to a
  shared :class:`~repro.portfolio.incumbents.IncumbentPool` and takes
  from it: EA populations inject the pooled front (displacing their
  worst rows), the tabu walk reseeds from the pooled pick, and the CP
  member's exact feasible placements seed everyone downstream;
* the **deadline** is only consulted at epoch boundaries (and
  propagated into members' inner loops), so the racer's *trajectory at
  a given epoch count* is byte-reproducible per seed — wall clock
  decides how many epochs run, never what they compute.

Run to exhaustion (no deadline), the portfolio is fully deterministic
and ``allocate()`` ≡ drive-``step()``-then-``finish()``.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Sequence

import numpy as np

from repro.allocator import Allocator, AnytimeRun, BatchOutcome
from repro.cp.allocator import CPAllocator
from repro.cp.search import SearchLimits
from repro.ea.config import NSGAConfig
from repro.errors import CheckpointError, ValidationError
from repro.hybrid.nsga_allocators import (
    NSGA2Allocator,
    NSGA3Allocator,
    NSGA3CPAllocator,
    NSGA3TabuAllocator,
)
from repro.model.infrastructure import Infrastructure
from repro.model.placement import UNPLACED
from repro.model.request import Request
from repro.objectives.preference import active_preference
from repro.portfolio.incumbents import IncumbentPool
from repro.runtime.checkpoint import (
    CheckpointManager,
    trajectory_key,
)
from repro.runtime.signals import shutdown_requested
from repro.tabu.search import TabuSearch
from repro.telemetry import get_registry
from repro.types import FloatArray, IntArray

__all__ = ["MEMBER_NAMES", "PortfolioAllocator", "PortfolioRun", "parse_members"]

#: Member factories accepted in a portfolio spec ("a+b+c").
MEMBER_NAMES = ("nsga3_tabu", "nsga3", "nsga2", "nsga3_cp", "cp", "tabu")


def parse_members(spec: str | Sequence[str]) -> tuple[str, ...]:
    """``"nsga3_tabu+cp+tabu"`` → ``("nsga3_tabu", "cp", "tabu")``."""
    names = (
        tuple(part.strip() for part in spec.split("+"))
        if isinstance(spec, str)
        else tuple(spec)
    )
    if not names or any(not n for n in names):
        raise ValidationError(f"empty portfolio member spec: {spec!r}")
    for name in names:
        if name not in MEMBER_NAMES:
            raise ValidationError(
                f"unknown portfolio member {name!r}; pick from {MEMBER_NAMES}"
            )
    return names


class _Member:
    """One racer lane: a named run advanced ``units`` work units per epoch."""

    def __init__(self, name: str, run, units: int) -> None:
        self.name = name
        self.run = run
        self.units = int(units)
        self.exhausted = False

    def step(self) -> None:
        if not self.exhausted:
            self.exhausted = not self.run.step(self.units)

    @property
    def evaluations(self) -> int:
        return int(self.run.evaluations)

    def close(self) -> None:
        closer = getattr(self.run, "close", None)
        if closer is not None:
            closer()


class PortfolioRun(AnytimeRun):
    """One in-progress portfolio race; see module docstring."""

    def __init__(
        self,
        allocator: "PortfolioAllocator",
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
        self.pool = IncumbentPool(capacity=allocator.pool_capacity)
        self.epoch = 0
        self.exchanges = 0
        self.interrupted = False
        self._deadline: float | None = None
        self._exhausted = False
        # Same fallback EngineRun has: an injected manager wins, else a
        # configured checkpoint_dir builds one.  Members never get it —
        # the composite snapshot below is the only writer, so every
        # lane is captured at the same epoch boundary.
        self.manager = allocator.checkpoint_manager
        if self.manager is None and allocator.config.checkpoint_dir is not None:
            self.manager = CheckpointManager(allocator.config.checkpoint_dir)
        # The judge: one evaluator scoring every member's candidates
        # under identical semantics (assignment constraint on, shared
        # energy weight), so the final pick is member-agnostic.
        self._judge = self.compiled.evaluator(
            base_usage=base_usage,
            previous_assignment=previous_assignment,
            include_assignment_constraint=True,
            energy_weight=allocator.energy_weight,
        )
        self.members = [
            self._build_member(i, name)
            for i, name in enumerate(allocator.member_names)
        ]
        self._state_name = (
            f"portfolio-{self.compiled.fingerprint[:12]}-{allocator.config_key[:8]}"
        )
        if self.manager is not None:
            self._maybe_resume()

    # ------------------------------------------------------------------
    # Member construction
    # ------------------------------------------------------------------
    def _build_member(self, index: int, name: str) -> _Member:
        allocator: PortfolioAllocator = self.allocator
        if name == "tabu":
            # The walk scores under the judge's semantics, so its
            # incumbents rank exactly as the final pick ranks them.
            search = TabuSearch(
                self._judge,
                max_iterations=allocator.tabu_max_iterations,
                seed=allocator.member_seed(index),
            )
            # Deterministic fully-placed start: round-robin over hosts.
            initial = (
                np.arange(self.merged.n, dtype=np.int64)
                % self.infrastructure.m
            )
            return _Member(name, search.start(initial), allocator.tabu_step_iterations)
        member_alloc = allocator.member_allocator(index, name)
        run = member_alloc.start(
            self.infrastructure,
            self._requests,
            base_usage=self.base_usage,
            previous_assignment=self.previous_assignment,
        )
        # The CP lane meters by request; EA lanes get a multi-generation
        # slice so the champion is not starved by round-robin overhead.
        units = 1 if name == "cp" else allocator.ea_generations_per_epoch
        return _Member(name, run, units)

    # ------------------------------------------------------------------
    # The race
    # ------------------------------------------------------------------
    def step(self, budget: int = 1) -> bool:
        """Advance up to ``budget`` epochs; False = nothing left (or the
        deadline/shutdown fired)."""
        if self._exhausted:
            return False
        for _ in range(int(budget)):
            if all(m.exhausted for m in self.members):
                self._exhausted = True
                return False
            if (
                self._deadline is not None
                and time.perf_counter() >= self._deadline
            ):
                self._exhausted = True
                return False
            if self.manager is not None and shutdown_requested():
                # Consistent cut: every member stands at the same epoch
                # boundary, so the composite snapshot resumes the whole
                # race byte-identically.
                self._snapshot()
                self.interrupted = True
                self._exhausted = True
                return False
            self._epoch()
        return not all(m.exhausted for m in self.members)

    def _epoch(self) -> None:
        self.epoch += 1
        for member in self.members:
            member.step()
        finished = all(m.exhausted for m in self.members)
        # The pool absorbs every member's incumbents *every* epoch (the
        # offers are cheap and keep the pooled front — the anytime
        # deliverable — as fresh as the slowest lane); the exchange back
        # into the members runs on the cadence, plus once when the race
        # just finished.
        self._offer()
        if self.epoch % self.allocator.exchange_every == 0 or finished:
            self._distribute()
        self.evaluations = sum(m.evaluations for m in self.members)
        registry = get_registry()
        registry.count("portfolio.epochs")

    def _offer(self) -> None:
        """Collect incumbents into the pool, in member order:
        population fronts wholesale, single-solution members judged by
        the shared evaluator."""
        for member in self.members:
            front = getattr(member.run, "front", None)
            if front is not None:
                genomes, objectives = front()
                self.pool.offer(genomes, objectives, source=member.name)
                continue
            candidate = member.run.best_solution()
            if np.any(candidate == UNPLACED):
                continue
            objectives, violations = self._judge.assess(candidate)
            self.pool.offer(
                candidate,
                objectives.as_array(),
                violations=np.array([violations]),
                source=member.name,
            )

    def _distribute(self) -> None:
        """One deterministic incumbent exchange out of the pool: EAs
        inject the pooled front, the tabu walk jumps to the pooled pick
        when it beats its current position."""
        self.exchanges += 1
        if len(self.pool) == 0:
            get_registry().count("portfolio.exchanges", empty=True)
            return
        genomes, objectives = self.pool.front()
        zeros = np.zeros(genomes.shape[0], dtype=np.int64)
        for member in self.members:
            inject = getattr(member.run, "inject", None)
            if inject is not None and not member.exhausted:
                inject(genomes, objectives, zeros)
                continue
            reseed = getattr(member.run, "reseed", None)
            if reseed is not None and not member.exhausted:
                best = self.pool.best()
                if best is not None:
                    genome, objs = best
                    reseed(genome, (0, float(objs.sum())))
        get_registry().count("portfolio.exchanges")

    # ------------------------------------------------------------------
    # Anytime surface
    # ------------------------------------------------------------------
    def best_solution(self) -> IntArray:
        """The judged pick over the pool and every member's incumbent.

        Feasibility dominates.  Among equally-violating candidates, an
        active ceteris-paribus preference order ranks by its
        lexicographic key; with none active, the historical aggregate
        objective sum — byte-identical to the pre-market behavior.
        """
        preference = active_preference()
        candidates: list[IntArray] = []
        pooled = self.pool.best()
        if pooled is not None:
            candidates.append(pooled[0])
        candidates.extend(m.run.best_solution() for m in self.members)
        best = None
        best_score = None
        for candidate in candidates:
            objectives, violations = self._judge.assess(candidate)
            vector = objectives.as_array()
            if preference is not None:
                score = (int(violations), *preference.key(vector))
            else:
                score = (int(violations), float(vector.sum()))
            if best_score is None or score < best_score:
                best = candidate
                best_score = score
        return np.asarray(best, dtype=np.int64).copy()

    def best_front(self) -> FloatArray:
        """The pooled nondominated front (one judged point until the
        pool first fills)."""
        if len(self.pool):
            return self.pool.front()[1]
        return super().best_front()

    def set_deadline(self, deadline: float) -> None:
        """Set the absolute ``time.perf_counter()`` deadline on every member."""
        self._deadline = float(deadline)
        for member in self.members:
            setter = getattr(member.run, "set_deadline", None)
            if setter is not None:
                setter(deadline)

    def close(self) -> None:
        """Release every member's per-run resources."""
        for member in self.members:
            member.close()

    def _extra(self) -> dict:
        return {
            "epochs": self.epoch,
            "exchanges": self.exchanges,
            "pool_size": len(self.pool),
            "members": {
                f"{i}:{m.name}": {
                    "evaluations": m.evaluations,
                    "exhausted": m.exhausted,
                }
                for i, m in enumerate(self.members)
            },
            **({"interrupted": True} if self.interrupted else {}),
        }

    # ------------------------------------------------------------------
    # Composite checkpoint / resume
    # ------------------------------------------------------------------
    def _snapshot(self) -> None:
        """Persist the whole race at the current epoch boundary.

        EA members save their own
        :class:`~repro.runtime.checkpoint.RunCheckpoint` files (the
        same format solo runs use); the composite state holds the pool,
        the epoch cursor and the single-solution members' walks."""
        member_states: dict[str, dict] = {}
        for i, member in enumerate(self.members):
            inner = getattr(member.run, "run", None)
            if inner is not None and hasattr(inner, "checkpoint_record"):
                self.manager.save(inner.checkpoint_record())
                continue
            state = getattr(member.run, "state_dict", None)
            if state is not None:
                member_states[f"{i}:{member.name}"] = state()
        self.manager.save_state(
            self._state_name,
            "portfolio_checkpoint",
            {
                "fingerprint": self.compiled.fingerprint,
                "config_key": self.allocator.config_key,
                "epoch": self.epoch,
                "exchanges": self.exchanges,
                "pool": self.pool.state_dict(),
                "members": member_states,
                "member_exhausted": [m.exhausted for m in self.members],
            },
        )
        get_registry().count("portfolio.checkpoint.writes")

    def _maybe_resume(self) -> None:
        try:
            data = self.manager.load_state(self._state_name, "portfolio_checkpoint")
        except (CheckpointError, OSError):
            return
        if (
            data.get("fingerprint") != self.compiled.fingerprint
            or data.get("config_key") != self.allocator.config_key
        ):
            return
        self.epoch = int(data["epoch"])
        self.exchanges = int(data["exchanges"])
        self.pool.load_state_dict(data["pool"])
        for i, member in enumerate(self.members):
            inner = getattr(member.run, "run", None)
            if inner is not None and hasattr(inner, "checkpoint_record"):
                ckpt = self.manager.latest(
                    self.compiled.fingerprint, inner.config_key
                )
                if ckpt is not None:
                    member.run.run = member.run.engine.start_run(
                        inner.evaluator,
                        fingerprint=self.compiled.fingerprint,
                        resume_from=ckpt,
                    )
                continue
            payload = data["members"].get(f"{i}:{member.name}")
            if payload is not None:
                member.run.load_state_dict(payload)
        for member, exhausted in zip(self.members, data["member_exhausted"]):
            member.exhausted = bool(exhausted)
        self.evaluations = sum(m.evaluations for m in self.members)
        get_registry().count("portfolio.checkpoint.resumes")


class PortfolioAllocator(Allocator):
    """Deadline-driven portfolio of anytime allocators.

    Parameters
    ----------
    config:
        Shared EA settings; each EA member gets a deterministic
        per-member seed derived from ``config.seed``.
    members:
        ``"+"``-joined member spec (default the paper's champion, the
        exact CP solve and a standalone tabu walk).
    deadline_ms:
        Wall-clock budget for :meth:`allocate`; ``None`` races every
        member to its own budget (fully deterministic).
    exchange_every:
        Incumbent-exchange cadence in epochs.
    pool_capacity:
        Incumbent pool bound.
    tabu_step_iterations / tabu_max_iterations:
        The tabu lane's slice size and total budget.
    cp_node_budget:
        Per-request node cap for the CP lane.  Much tighter than the
        standalone :class:`CPAllocator` default: an exhaustive
        per-request search would hog the round-robin and starve the EA
        lanes of wall clock.  Node-based, so exhaustion-bounded races
        stay deterministic.
    ea_generations_per_epoch:
        Generations each EA lane advances per epoch.  EA generations
        are the cheapest work unit in the race; a multi-generation
        slice keeps the champion's share of the wall clock dominant so
        an equal-deadline portfolio stays competitive with a solo run.
    """

    name = "portfolio"

    def __init__(
        self,
        config: NSGAConfig | None = None,
        members: str | Sequence[str] = "nsga3_tabu+cp+tabu",
        deadline_ms: float | None = None,
        exchange_every: int = 4,
        pool_capacity: int = 128,
        tabu_step_iterations: int = 10,
        tabu_max_iterations: int = 2048,
        cp_node_budget: int = 400,
        ea_generations_per_epoch: int = 8,
    ) -> None:
        if exchange_every < 1:
            raise ValidationError("exchange_every must be >= 1")
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValidationError("deadline_ms must be > 0 when set")
        if cp_node_budget < 1:
            raise ValidationError("cp_node_budget must be >= 1")
        if ea_generations_per_epoch < 1:
            raise ValidationError("ea_generations_per_epoch must be >= 1")
        self.config = config or NSGAConfig()
        self.energy_weight = self.config.energy_weight
        self.member_names = parse_members(members)
        self.deadline_ms = deadline_ms
        self.exchange_every = int(exchange_every)
        self.pool_capacity = int(pool_capacity)
        self.tabu_step_iterations = int(tabu_step_iterations)
        self.tabu_max_iterations = int(tabu_max_iterations)
        self.cp_node_budget = int(cp_node_budget)
        self.ea_generations_per_epoch = int(ea_generations_per_epoch)
        self._member_allocators: list[Allocator] = []

    @property
    def config_key(self) -> str:
        """Trajectory identity of the whole race: members, cadence,
        every per-lane work-unit weight (a checkpoint written under one
        slicing must not seed a race stepped under another) and the
        active preference order, which picks the pooled incumbent the
        tabu lane is reseeded from."""
        order = active_preference()
        return trajectory_key(
            self.config,
            "portfolio/{}/x{}/g{}/t{}-{}/cp{}".format(
                "+".join(self.member_names),
                self.exchange_every,
                self.ea_generations_per_epoch,
                self.tabu_step_iterations,
                self.tabu_max_iterations,
                self.cp_node_budget,
            ),
            preference=None if order is None else order.spec,
        )

    # ------------------------------------------------------------------
    def member_seed(self, index: int) -> int:
        """Deterministic per-member seed: lanes must not share RNG
        streams, or two EAs would explore identical trajectories."""
        base = self.config.seed if self.config.seed is not None else 0
        return int(base) + 1_000 * (index + 1)

    def member_allocator(self, index: int, name: str) -> Allocator:
        """Construct (and track, for :meth:`close`) one member allocator."""
        # Per-member seed; no member-owned checkpointing — the race
        # snapshots all lanes at once (see PortfolioRun._snapshot), and
        # a member writing its own mid-epoch checkpoints would tear
        # that consistent cut.
        config = dataclasses.replace(
            self.config,
            seed=self.member_seed(index),
            checkpoint_dir=None,
            checkpoint_every=None,
        )
        if name == "nsga3_tabu":
            member: Allocator = NSGA3TabuAllocator(config)
        elif name == "nsga3":
            member = NSGA3Allocator(config)
        elif name == "nsga2":
            member = NSGA2Allocator(config)
        elif name == "nsga3_cp":
            member = NSGA3CPAllocator(config)
        elif name == "cp":
            member = CPAllocator(
                optimize=True,
                limits=SearchLimits(
                    max_nodes=self.cp_node_budget, time_limit=None
                ),
            )
        else:  # pragma: no cover - parse_members guards this
            raise ValidationError(f"unknown member {name!r}")
        # Members share the portfolio's compilation cache and worker
        # pool; they never own an engine of their own (close() would
        # otherwise leak N-1 pools).
        if self.problem_cache is None:
            from repro.engine import ProblemCache

            self.problem_cache = ProblemCache()
        member.problem_cache = self.problem_cache
        engine = self._ensure_shared_engine()
        if engine is not None:
            member.execution_engine = engine
        self._member_allocators.append(member)
        return member

    def _ensure_shared_engine(self):
        """One portfolio-level parallel engine shared by EA members."""
        if self.execution_engine is None and self.config.n_workers >= 1:
            from repro.engine.parallel import ParallelEngine

            self.execution_engine = ParallelEngine(self.config.n_workers)
        return self.execution_engine

    # ------------------------------------------------------------------
    def start(
        self,
        infrastructure: Infrastructure,
        requests: Sequence[Request],
        base_usage: FloatArray | None = None,
        previous_assignment: IntArray | None = None,
    ) -> PortfolioRun:
        """Begin an epoch-granular portfolio race."""
        return PortfolioRun(
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
        """Race the members (to the deadline, if one is configured)."""
        run = self.start(
            infrastructure,
            requests,
            base_usage=base_usage,
            previous_assignment=previous_assignment,
        )
        if self.deadline_ms is not None:
            run.set_deadline(time.perf_counter() + self.deadline_ms / 1000.0)
        try:
            while run.step():
                pass
            return run.finish()
        finally:
            run.close()

    def close(self) -> None:
        """Release every member allocator's resources, then our own."""
        for member in self._member_allocators:
            member.close()
        self._member_allocators.clear()
        super().close()
