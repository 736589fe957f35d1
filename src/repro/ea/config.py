"""NSGA configuration — Table III of the paper as a dataclass.

| Parameter              | Paper value |
|------------------------|-------------|
| populationSize         | 100         |
| Number of evaluations  | 10 000      |
| sbx.rate               | 0.70        |
| sbx.distributionIndex  | 15.00       |
| pm.rate                | 0.20        |
| pm.distributionIndex   | 15.00       |

``pm.rate`` follows the MOEA-framework convention the paper's parameter
names come from: the *per-variable* mutation probability multiplier
(effective per-gene rate = pm_rate / n is a common alternative; here
the rate is applied per gene directly, matching the framework default
``1/n``-style usage being overridden to 0.20).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ValidationError

__all__ = ["NSGAConfig"]


@dataclass(frozen=True)
class NSGAConfig:
    """Hyper-parameters for NSGA-II / NSGA-III runs.

    Parameters
    ----------
    population_size:
        Individuals per generation (Table III: 100).
    max_evaluations:
        Total genome-evaluation budget (Table III: 10 000).
    sbx_rate:
        Probability a parent pair undergoes SBX crossover.
    sbx_distribution_index:
        SBX spread parameter (higher = children closer to parents).
    pm_rate:
        Per-gene polynomial-mutation probability.
    pm_distribution_index:
        PM spread parameter.
    reference_point_divisions:
        Das-Dennis divisions per objective for NSGA-III (3 objectives
        with 12 divisions → 91 points, matching a population of ~100).
    time_limit:
        Optional wall-clock cap in seconds (the paper targets responses
        "in a very short timeframe (<2mn)").
    stall_generations:
        Optional convergence stop: end the run after this many
        consecutive generations without improvement of the best
        feasible aggregate (None = run the full budget, the paper's
        protocol).
    seed:
        RNG seed for the run.
    n_workers:
        Worker processes for the intra-run parallel execution engine
        (``0`` = serial, the default).  Results are byte-identical to
        the serial path for a given seed regardless of worker count;
        see ``docs/PARALLEL.md``.
    checkpoint_dir:
        When set, the run snapshots its full trajectory state into this
        directory at generation boundaries and auto-resumes from the
        newest compatible checkpoint on the next start — byte-identical
        to an uninterrupted run (see ``docs/RUNBOOK.md``).  ``None``
        (the default) disables checkpointing entirely.
    checkpoint_every:
        Generations between snapshots (default 10 when
        ``checkpoint_dir`` is set).
    energy_weight:
        Weight of the optional energy term folded into the provider
        cost objective (see :mod:`repro.objectives.energy`).  0.0 — the
        default — reproduces the paper's three-objective formulation
        byte for byte.  Non-zero weights change the search trajectory,
        so the value participates in checkpoint trajectory keys.
    """

    population_size: int = 100
    max_evaluations: int = 10_000
    sbx_rate: float = 0.70
    sbx_distribution_index: float = 15.0
    pm_rate: float = 0.20
    pm_distribution_index: float = 15.0
    reference_point_divisions: int = 12
    time_limit: float | None = None
    stall_generations: int | None = None
    seed: int | None = None
    n_workers: int = 0
    checkpoint_dir: str | None = None
    checkpoint_every: int | None = None
    energy_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.population_size < 4:
            raise ValidationError(
                f"population_size must be >= 4, got {self.population_size}"
            )
        if self.population_size % 2:
            raise ValidationError(
                f"population_size must be even, got {self.population_size}"
            )
        if self.max_evaluations < self.population_size:
            raise ValidationError(
                "max_evaluations must cover at least the initial population "
                f"({self.max_evaluations} < {self.population_size})"
            )
        for name in ("sbx_rate", "pm_rate"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValidationError(f"{name} must lie in [0, 1], got {value}")
        for name in ("sbx_distribution_index", "pm_distribution_index"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be > 0")
        if self.reference_point_divisions < 1:
            raise ValidationError("reference_point_divisions must be >= 1")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValidationError("time_limit must be > 0 when set")
        if self.stall_generations is not None and self.stall_generations < 1:
            raise ValidationError("stall_generations must be >= 1 when set")
        if self.n_workers < 0:
            raise ValidationError(
                f"n_workers must be >= 0, got {self.n_workers}"
            )
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValidationError("checkpoint_every must be >= 1 when set")
        if self.energy_weight < 0:
            raise ValidationError(
                f"energy_weight must be >= 0, got {self.energy_weight}"
            )

    def with_(self, **changes) -> "NSGAConfig":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **changes)
