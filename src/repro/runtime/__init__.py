"""repro.runtime — checkpoint/resume durability for long allocations.

The paper's evaluation campaigns (100 runs x 10 000 evaluations per
sweep point) are exactly the workloads that die to pre-emption at
generation 190/200.  This package makes them restartable:

* :mod:`repro.runtime.checkpoint` — :class:`RunCheckpoint` (full NSGA
  trajectory state at a generation boundary) and
  :class:`CheckpointManager` (atomic, checksummed, versioned on-disk
  store with pruning);
* :mod:`repro.runtime.signals` — SIGINT/SIGTERM graceful-flush
  handlers and the process-wide shutdown flag long loops poll.

Wiring: ``NSGAConfig(checkpoint_every=..., checkpoint_dir=...)`` turns
on boundary snapshots inside every EA allocator;
``ExperimentRunner.run_sweep(..., checkpoint_dir=...)`` adds per-cell
campaign resume; ``python -m repro resume PATH`` restarts a killed
campaign; ``python -m repro verify --check resume`` proves the
byte-identity contract.  Operational guide: ``docs/RUNBOOK.md``.
"""

from repro.runtime.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointManager,
    RunCheckpoint,
    atomic_write_json,
    read_checked_json,
    trajectory_key,
)
from repro.runtime.signals import (
    GracefulShutdown,
    clear_shutdown,
    request_shutdown,
    shutdown_requested,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointManager",
    "RunCheckpoint",
    "atomic_write_json",
    "read_checked_json",
    "trajectory_key",
    "GracefulShutdown",
    "clear_shutdown",
    "request_shutdown",
    "shutdown_requested",
]
