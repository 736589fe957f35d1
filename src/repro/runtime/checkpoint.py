"""Durable checkpoint storage for long-running allocation campaigns.

The paper's evaluation protocol (Figures 7-11) averages 100 runs of a
10 000-evaluation budget per sweep point — hours of wall clock at
production scale.  A crash, OOM-kill or pre-emption near the end of
such a campaign must not lose the work.  This module provides the
storage layer of the checkpoint/resume subsystem:

* :class:`RunCheckpoint` — the complete trajectory state of one NSGA
  run at a generation boundary: population matrices, RNG bit-generator
  state, the tabu-repair batch counter, stall/incumbent trackers, the
  compiled-instance fingerprint and a config trajectory key for
  staleness detection;
* :class:`CheckpointManager` — an atomic, versioned on-disk store.
  Writes go to a temp file in the same directory, are fsync'd, then
  :func:`os.replace`'d over the final name, so a torn write (power
  loss, kill -9 mid-write) can never clobber the previous valid
  checkpoint.  Every payload carries a BLAKE2b checksum; corrupt or
  truncated files are detected on load and skipped by
  :meth:`CheckpointManager.latest`.

The resume contract is **byte identity**: a run restored from a
checkpoint continues exactly as the uninterrupted run would have —
same final fronts, same rejection sets, same counters — proven by
``repro.verify.resume`` and ``python -m repro verify --check resume``.
Floats survive the JSON round trip exactly (``json`` serializes via
``repr``, which is lossless for finite doubles), and the RNG state is
the raw bit-generator state dictionary.

Telemetry lands in ``runtime.checkpoint.*`` (write/restore counts,
bytes, durations); see ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import CheckpointError, ValidationError
from repro.telemetry import get_registry
from repro.utils.timers import Stopwatch

__all__ = [
    "CHECKPOINT_VERSION",
    "RunCheckpoint",
    "CheckpointManager",
    "trajectory_key",
    "atomic_write_json",
    "read_checked_json",
]

#: On-disk format version.  Bump on incompatible layout changes; the
#: loader rejects files written by a different major version.
CHECKPOINT_VERSION = 1

#: NSGAConfig fields that shape the search *trajectory*.  Stopping
#: criteria (``max_evaluations``, ``time_limit``, ``stall_generations``)
#: and execution knobs (``n_workers``, the checkpoint settings
#: themselves) are deliberately excluded: a checkpoint taken under a
#: 600-evaluation budget resumes byte-identically into a 10 000-
#: evaluation run, and a serial checkpoint resumes under a worker pool
#: (the parallel engine's determinism contract makes both paths emit
#: the same bytes).
_TRAJECTORY_FIELDS = (
    "population_size",
    "sbx_rate",
    "sbx_distribution_index",
    "pm_rate",
    "pm_distribution_index",
    "reference_point_divisions",
    "seed",
    # The optional energy term reshapes the objective landscape, so two
    # runs differing in weight are distinct trajectories.
    "energy_weight",
)


def trajectory_key(config: Any, algorithm: str, preference: str | None = None) -> str:
    """Digest of the (algorithm, config) pair that defines a trajectory.

    Two runs share a trajectory key exactly when, generation for
    generation, they draw the same random numbers and apply the same
    operators — the precondition for resuming one from the other's
    checkpoint.  ``preference`` is the spec of the active preference
    order (``None`` = the ideal-point pick): the order picks the
    incumbent that the stall detector watches and that a portfolio
    reseeds from, so two runs differing in it are distinct trajectories.
    """
    parts = [f"algorithm={algorithm}"]
    for name in _TRAJECTORY_FIELDS:
        parts.append(f"{name}={getattr(config, name)!r}")
    parts.append(f"preference={preference!r}")
    digest = hashlib.blake2b("|".join(parts).encode(), digest_size=16)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Atomic, checksummed JSON files
# ----------------------------------------------------------------------
def _checksum(data: dict[str, Any]) -> str:
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


def atomic_write_json(path: str | Path, kind: str, data: dict[str, Any]) -> int:
    """Write ``data`` to ``path`` atomically; return the bytes written.

    The envelope carries a kind tag, the format version and a BLAKE2b
    checksum of the canonical payload, so readers can reject both torn
    writes (unparseable JSON) and silent corruption (checksum drift).
    The temp file lives in the destination directory, is flushed and
    fsync'd, then atomically renamed — on POSIX either the old file or
    the complete new file exists, never a mix.
    """
    path = Path(path)
    envelope = {
        "kind": kind,
        "version": CHECKPOINT_VERSION,
        "checksum": _checksum(data),
        "data": data,
    }
    blob = json.dumps(envelope, sort_keys=True).encode()
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return len(blob)


def read_checked_json(path: str | Path, kind: str) -> dict[str, Any]:
    """Load and validate an envelope written by :func:`atomic_write_json`.

    Raises :class:`~repro.errors.CheckpointError` on missing file,
    unparseable JSON, wrong kind, version skew, or checksum mismatch.
    """
    path = Path(path)
    try:
        envelope = json.loads(path.read_text())
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint file not found: {path}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from None
    if not isinstance(envelope, dict) or envelope.get("kind") != kind:
        raise CheckpointError(
            f"{path} is not a {kind!r} file (kind={envelope.get('kind')!r})"
            if isinstance(envelope, dict)
            else f"{path} is not a checkpoint envelope"
        )
    if envelope.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path} has format version {envelope.get('version')}, "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    data = envelope.get("data")
    if not isinstance(data, dict) or envelope.get("checksum") != _checksum(data):
        raise CheckpointError(f"{path} failed its integrity checksum")
    return data


# ----------------------------------------------------------------------
# The run checkpoint record
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunCheckpoint:
    """Complete NSGA trajectory state at one generation boundary.

    Attributes
    ----------
    algorithm:
        Engine label (``"nsga3"``...), part of the trajectory identity.
    fingerprint:
        :class:`~repro.engine.CompiledProblem` fingerprint of the
        instance the run optimizes; resuming against a mutated scenario
        is rejected through this field.
    config_key:
        :func:`trajectory_key` of the run's configuration.
    generation, evaluations, elapsed:
        Loop counters and accumulated wall-clock seconds at the
        boundary.
    genomes, objectives, violations:
        The population's struct-of-arrays state.
    rng_state:
        Raw ``numpy`` bit-generator state of the run's generator.
    stalled, best_violations, best_aggregate:
        Stall-detector state (consecutive non-improving generations and
        the incumbent it compares against).
    repair_state:
        Runtime counters of the constraint handler's repairer — for the
        tabu repair, the parallel-fan-out batch counter that addresses
        per-individual RNG streams — or ``None`` for stateless handlers.
    history:
        Per-generation stats dictionaries when history tracking is on.
    """

    algorithm: str
    fingerprint: str
    config_key: str
    generation: int
    evaluations: int
    elapsed: float
    genomes: np.ndarray
    objectives: np.ndarray
    violations: np.ndarray
    rng_state: dict[str, Any]
    stalled: int
    best_violations: int
    best_aggregate: float
    repair_state: dict[str, Any] | None = None
    history: tuple[dict[str, Any], ...] = ()

    def to_payload(self) -> dict[str, Any]:
        """The JSON-safe dictionary form (inverse of :meth:`from_payload`)."""
        return {
            "algorithm": self.algorithm,
            "fingerprint": self.fingerprint,
            "config_key": self.config_key,
            "generation": int(self.generation),
            "evaluations": int(self.evaluations),
            "elapsed": float(self.elapsed),
            "genomes": np.asarray(self.genomes, dtype=np.int64).tolist(),
            "objectives": np.asarray(self.objectives, dtype=np.float64).tolist(),
            "violations": np.asarray(self.violations, dtype=np.int64).tolist(),
            "rng_state": self.rng_state,
            "stalled": int(self.stalled),
            "best_violations": int(self.best_violations),
            "best_aggregate": float(self.best_aggregate),
            "repair_state": self.repair_state,
            "history": list(self.history),
        }

    @classmethod
    def from_payload(cls, data: dict[str, Any]) -> "RunCheckpoint":
        """Rebuild a checkpoint from its payload dictionary."""
        try:
            return cls(
                algorithm=data["algorithm"],
                fingerprint=data["fingerprint"],
                config_key=data["config_key"],
                generation=int(data["generation"]),
                evaluations=int(data["evaluations"]),
                elapsed=float(data["elapsed"]),
                genomes=np.asarray(data["genomes"], dtype=np.int64),
                objectives=np.asarray(data["objectives"], dtype=np.float64),
                violations=np.asarray(data["violations"], dtype=np.int64),
                rng_state=data["rng_state"],
                stalled=int(data["stalled"]),
                best_violations=int(data["best_violations"]),
                best_aggregate=float(data["best_aggregate"]),
                repair_state=data.get("repair_state"),
                history=tuple(data.get("history", ())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint payload: {exc}") from None


# ----------------------------------------------------------------------
# The on-disk store
# ----------------------------------------------------------------------
class CheckpointManager:
    """Versioned checkpoint directory with atomic writes and pruning.

    Parameters
    ----------
    directory:
        Where checkpoint files live; created on construction.
    retain:
        Checkpoints kept per (fingerprint, config) trajectory.  Older
        boundaries are deleted after each successful write, so disk use
        is bounded while the newest valid checkpoint always survives a
        torn write of its successor.
    """

    _RUN_KIND = "run_checkpoint"

    def __init__(self, directory: str | Path, retain: int = 3) -> None:
        if retain < 1:
            raise ValidationError(f"retain must be >= 1, got {retain}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.retain = int(retain)

    # ------------------------------------------------------------------
    def _trajectory_tag(self, fingerprint: str, config_key: str) -> str:
        return f"{fingerprint[:12]}-{config_key[:8]}"

    def path_for(self, checkpoint: RunCheckpoint) -> Path:
        """Final file name of ``checkpoint`` inside the directory."""
        tag = self._trajectory_tag(checkpoint.fingerprint, checkpoint.config_key)
        return self.directory / f"ckpt-{tag}-g{checkpoint.generation:06d}.json"

    # ------------------------------------------------------------------
    def save(self, checkpoint: RunCheckpoint) -> Path:
        """Atomically persist one checkpoint and prune old boundaries."""
        path = self.path_for(checkpoint)
        stopwatch = Stopwatch().start()
        size = atomic_write_json(path, self._RUN_KIND, checkpoint.to_payload())
        stopwatch.stop()
        registry = get_registry()
        registry.count("runtime.checkpoint.writes")
        registry.count("runtime.checkpoint.bytes", size)
        registry.observe("runtime.checkpoint.write_seconds", stopwatch.elapsed)
        self._prune(checkpoint.fingerprint, checkpoint.config_key)
        return path

    def _prune(self, fingerprint: str, config_key: str) -> None:
        kept = self._trajectory_files(fingerprint, config_key)
        for path in kept[: -self.retain]:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - already gone / permissions
                continue
            get_registry().count("runtime.checkpoint.pruned")

    def _trajectory_files(self, fingerprint: str, config_key: str) -> list[Path]:
        tag = self._trajectory_tag(fingerprint, config_key)
        return sorted(self.directory.glob(f"ckpt-{tag}-g*.json"))

    # ------------------------------------------------------------------
    def load(self, path: str | Path) -> RunCheckpoint:
        """Read one checkpoint file, verifying envelope and checksum."""
        stopwatch = Stopwatch().start()
        checkpoint = RunCheckpoint.from_payload(
            read_checked_json(path, self._RUN_KIND)
        )
        stopwatch.stop()
        registry = get_registry()
        registry.count("runtime.checkpoint.restores")
        registry.observe("runtime.checkpoint.restore_seconds", stopwatch.elapsed)
        return checkpoint

    def latest(
        self, fingerprint: str, config_key: str
    ) -> RunCheckpoint | None:
        """The newest *valid* checkpoint of one trajectory, if any.

        Files that fail to parse or fail their checksum (torn writes of
        a dying process) are skipped — counted as
        ``runtime.checkpoint.invalid`` — and the scan falls back to the
        next-older boundary, which atomic replacement guarantees is
        intact.
        """
        for path in reversed(self._trajectory_files(fingerprint, config_key)):
            try:
                checkpoint = self.load(path)
            except CheckpointError:
                get_registry().count("runtime.checkpoint.invalid")
                continue
            if (
                checkpoint.fingerprint == fingerprint
                and checkpoint.config_key == config_key
            ):
                return checkpoint
        return None

    # ------------------------------------------------------------------
    # Generic named states (service snapshots, the portfolio's race)
    # ------------------------------------------------------------------
    def save_state(self, name: str, kind: str, data: dict[str, Any]) -> Path:
        """Atomically persist an arbitrary named payload (same envelope)."""
        path = self.directory / f"{name}.json"
        size = atomic_write_json(path, kind, data)
        registry = get_registry()
        registry.count("runtime.checkpoint.writes")
        registry.count("runtime.checkpoint.bytes", size)
        return path

    def load_state(self, name: str, kind: str) -> dict[str, Any]:
        """Load a payload written by :meth:`save_state` (checked)."""
        data = read_checked_json(self.directory / f"{name}.json", kind)
        get_registry().count("runtime.checkpoint.restores")
        return data
