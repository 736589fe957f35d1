"""Exception hierarchy for the :mod:`repro` library.

All library-specific failures derive from :class:`ReproError` so callers
can catch a single base class.  Errors are deliberately fine-grained:
model-construction problems, solver failures and infeasibility are
distinct conditions that downstream schedulers handle differently
(infeasibility means *reject the request*, a solver failure means
*retry or fall back*).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ModelError",
    "DimensionError",
    "ValidationError",
    "TopologyError",
    "ConstraintError",
    "SolverError",
    "InfeasibleError",
    "SolverTimeoutError",
    "EncodingError",
    "SchedulerError",
    "CheckpointError",
]


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ModelError(ReproError):
    """A cloud-model object (infrastructure, request, placement) is invalid."""


class DimensionError(ModelError):
    """Matrix/vector dimensions disagree with the model sizes (g, m, n, h)."""


class ValidationError(ModelError):
    """A scalar argument or array content is out of its documented range."""


class TopologyError(ReproError):
    """The physical network topology is malformed (e.g. an unconnected leaf)."""


class ConstraintError(ReproError):
    """A constraint definition is inconsistent with the model."""


class SolverError(ReproError):
    """An allocation algorithm failed for a reason other than infeasibility."""


class InfeasibleError(SolverError):
    """No placement satisfying the request constraints exists (request rejected)."""


class SolverTimeoutError(SolverError):
    """The solver exceeded its time budget before proving anything."""


class EncodingError(ReproError):
    """A genome/placement encoding round-trip is impossible or inconsistent."""


class SchedulerError(ReproError):
    """The time-window scheduler was driven into an invalid state."""


class CheckpointError(ReproError):
    """A run checkpoint is corrupt, stale, or incompatible with the run."""
