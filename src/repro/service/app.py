"""Service lifecycle: boot, signals, checkpoints, resume.

:class:`ServiceApp` assembles the control plane —
:class:`~repro.service.state.ServiceState` (authoritative state),
:class:`~repro.service.admission.AdmissionController` (fast path),
:class:`~repro.service.reoptimizer.Reoptimizer` (slow path) and
:class:`~repro.service.api.ApiServer` (front door) — and owns its
runtime story:

* **boot** — the estate comes from a scenario JSON (``--scenario
  FILE``), a *registered dynamic scenario* (``--scenario NAME``, see
  :mod:`repro.workloads.scenarios` — its compiled churn/failure stream
  is then played back through live admission window by window), a
  generated :class:`~repro.workloads.generator.ScenarioSpec`, or, with
  ``--resume``, the last service checkpoint;
* **signals** — SIGTERM/SIGINT are bridged into the asyncio loop via
  :func:`loop.add_signal_handler`; the first raises the process-wide
  shutdown flag (:func:`repro.runtime.signals.request_shutdown`) and
  starts a graceful unwind, a second forces exit;
* **checkpoints** — with ``--checkpoint-dir``, the admission worker's
  batch hook snapshots the full service payload (infrastructure +
  scheduler state + admission log + epoch) every
  ``checkpoint_every`` windows and once more on shutdown, through the
  same :class:`~repro.runtime.checkpoint.CheckpointManager` envelope
  (checksummed, atomic) the batch campaigns use;
* **resume** — ``python -m repro serve --resume --checkpoint-dir D``
  reloads that payload and restores residents byte-identically
  (provable with ``python -m repro verify --check service=D``).
"""

from __future__ import annotations

import asyncio
import json
import signal as _signal
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.ea.config import NSGAConfig
from repro.errors import CheckpointError
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.signals import clear_shutdown, request_shutdown
from repro.serialization import infrastructure_from_dict, infrastructure_to_dict
from repro.service.admission import AdmissionController
from repro.service.api import ApiServer
from repro.service.reoptimizer import DEFAULT_MEMBERS, Reoptimizer
from repro.service.state import ServiceState
from repro.telemetry import get_registry
from repro.workloads.generator import ScenarioGenerator, ScenarioSpec

__all__ = ["ServiceConfig", "ServiceApp", "SERVICE_CHECKPOINT_KIND"]

#: Envelope kind of the service checkpoint payload.
SERVICE_CHECKPOINT_KIND = "service_checkpoint"
#: File stem of the service checkpoint inside the checkpoint directory.
SERVICE_CHECKPOINT_NAME = "service"


@dataclass
class ServiceConfig:
    """Everything ``python -m repro serve`` can set."""

    host: str = "127.0.0.1"
    port: int = 0
    servers: int = 16
    datacenters: int = 2
    vms: int = 32
    tightness: float = 0.65
    seed: int = 0
    window_length: float = 1.0
    #: Seconds between background reoptimization cycles.
    window_every: float = 30.0
    checkpoint_dir: str | None = None
    #: Service checkpoint cadence in admission windows.
    checkpoint_every: int = 50
    max_queue: int = 256
    #: Token-bucket rate limit in requests/second (0 = unlimited).
    rate: float = 0.0
    burst: int = 64
    population: int = 20
    evaluations: int = 600
    #: Worker processes for the reoptimizer's parallel engine (0 = serial).
    workers: int = 0
    #: Portfolio spec raced by the background reoptimizer.
    members: str = DEFAULT_MEMBERS
    #: Wall-clock budget per reoptimization solve (None = run to budget).
    deadline_ms: float | None = None
    scenario: str | None = None
    resume: bool = False

    def scenario_spec(self) -> ScenarioSpec:
        """The generated-estate spec when no scenario file is given."""
        return ScenarioSpec(
            servers=self.servers,
            datacenters=self.datacenters,
            vms=self.vms,
            tightness=self.tightness,
        )


class ServiceApp:
    """Owns the component graph and the serve/shutdown state machine."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.checkpoints: CheckpointManager | None = (
            CheckpointManager(config.checkpoint_dir)
            if config.checkpoint_dir
            else None
        )
        self.state: ServiceState | None = None
        self.controller: AdmissionController | None = None
        self.reoptimizer: Reoptimizer | None = None
        self.api: ApiServer | None = None
        self._stop = asyncio.Event()
        self._signals_seen = 0
        self._windows_at_checkpoint = 0
        #: Compiled dynamic scenario to play back (``--scenario NAME``).
        self._playback = None
        #: Set once the playback driver has admitted its last window.
        self.playback_done = asyncio.Event()

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------
    def _build_state(self) -> ServiceState:
        config = self.config
        if config.resume:
            payload = self.load_checkpoint()
            infrastructure = infrastructure_from_dict(payload["infrastructure"])
            state = ServiceState(
                infrastructure,
                window_length=float(payload.get("window_length", config.window_length)),
                seed=int(payload["seed"]),
            )
            state.restore_payload(payload)
            return state
        if config.scenario:
            from repro.workloads.scenarios import (
                compile_scenario,
                scenario_names,
            )

            if config.scenario in scenario_names():
                # A registered dynamic scenario: serve its estate and
                # play its event stream back through live admission.
                self._playback = compile_scenario(
                    config.scenario, seed=config.seed
                )
                return ServiceState(
                    self._playback.infrastructure,
                    window_length=self._playback.spec.window_length,
                    seed=config.seed,
                )
            data = json.loads(Path(config.scenario).read_text())
            infrastructure = infrastructure_from_dict(data["infrastructure"])
        else:
            scenario = ScenarioGenerator(
                config.scenario_spec(), seed=config.seed
            ).generate()
            infrastructure = scenario.infrastructure
        return ServiceState(
            infrastructure,
            window_length=config.window_length,
            seed=config.seed,
        )

    # ------------------------------------------------------------------
    # Dynamic-scenario playback
    # ------------------------------------------------------------------
    def _playback_batches(self) -> list[dict[str, Any]]:
        """The compiled stream grouped into per-window admit() batches.

        Window ``w`` of the scenario (events with
        ``time // window_length == w``) becomes the ``w``-th admission
        micro-batch; empty windows are still closed so the service's
        logical clock tracks scenario time.
        """
        compiled = self._playback
        length = compiled.spec.window_length
        last = 0
        batches: dict[int, dict[str, list]] = {}

        def batch(time: float) -> dict[str, list]:
            nonlocal last
            index = int(time // length)
            last = max(last, index)
            return batches.setdefault(
                index,
                {
                    "arrivals": [],
                    "departures": [],
                    "failures": [],
                    "drains": [],
                    "recoveries": [],
                },
            )

        for event in compiled.arrivals:
            batch(event.time)["arrivals"].append((event.key, event.request))
        for event in compiled.departures:
            batch(event.time)["departures"].append(event.key)
        for event in compiled.failures:
            batch(event.time)["failures"].append(event.server)
        for event in compiled.drains:
            batch(event.time)["drains"].append(event.server)
        for event in compiled.recoveries:
            batch(event.time)["recoveries"].append(event.server)
        empty: dict[str, list] = {
            "arrivals": [],
            "departures": [],
            "failures": [],
            "drains": [],
            "recoveries": [],
        }
        return [batches.get(index, empty) for index in range(last + 1)]

    async def _drive_playback(self) -> None:
        """Admit the compiled scenario's windows one by one, then idle.

        Runs on the event loop (the service's single writer), yielding
        between windows so API traffic and checkpoints interleave; the
        admission log records the whole session for
        ``verify --check service``.
        """
        registry = get_registry()
        name = self._playback.spec.name
        for batch in self._playback_batches():
            if self._stop.is_set():
                break
            self.state.admit(**batch)
            registry.count("service.scenario.windows", scenario=name)
            self._maybe_checkpoint()
            await asyncio.sleep(0)
        self.playback_done.set()
        print(
            f"repro.service scenario {name!r} played back "
            f"(windows={self.state.scheduler.window_index}, "
            f"tenants={self.state.tenant_count()})",
            flush=True,
        )

    def load_checkpoint(self) -> dict[str, Any]:
        """The last saved service payload (raises without one)."""
        if self.checkpoints is None:
            raise CheckpointError("--resume requires --checkpoint-dir")
        return self.checkpoints.load_state(
            SERVICE_CHECKPOINT_NAME, SERVICE_CHECKPOINT_KIND
        )

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def save_checkpoint(self) -> None:
        """Snapshot the full service payload (atomic, checksummed)."""
        if self.checkpoints is None or self.state is None:
            return
        payload = {
            "infrastructure": infrastructure_to_dict(self.state.infrastructure),
            "window_length": self.state.scheduler.window_length,
            **self.state.state_payload(),
        }
        self.checkpoints.save_state(
            SERVICE_CHECKPOINT_NAME, SERVICE_CHECKPOINT_KIND, payload
        )
        get_registry().count("service.checkpoints")

    def _maybe_checkpoint(self) -> None:
        """Admission-batch hook: checkpoint every ``checkpoint_every`` windows."""
        if self.checkpoints is None or self.state is None:
            return
        windows = self.state.scheduler.window_index
        if windows - self._windows_at_checkpoint >= self.config.checkpoint_every:
            self._windows_at_checkpoint = windows
            self.save_checkpoint()

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def _on_signal(self, signame: str) -> None:
        self._signals_seen += 1
        if self._signals_seen > 1:
            sys.exit(1)
        request_shutdown(reason=signame.lower())
        self._stop.set()

    def shutdown(self) -> None:
        """Programmatic graceful stop (same path as the first SIGTERM)."""
        self._stop.set()

    # ------------------------------------------------------------------
    # Serve
    # ------------------------------------------------------------------
    async def serve(self) -> int:
        """Boot, serve until stopped, unwind gracefully."""
        config = self.config
        self.state = self._build_state()
        self.controller = AdmissionController(
            self.state, max_queue=config.max_queue
        )
        self.controller.on_batch = self._maybe_checkpoint
        self.reoptimizer = Reoptimizer(
            self.state,
            config=NSGAConfig(
                population_size=config.population,
                max_evaluations=config.evaluations,
                seed=config.seed,
                n_workers=config.workers,
            ),
            every=config.window_every,
            members=config.members,
            deadline_ms=config.deadline_ms,
        )
        self.api = ApiServer(
            self.state,
            self.controller,
            reoptimizer=self.reoptimizer,
            host=config.host,
            port=config.port,
            rate=config.rate,
            burst=config.burst,
        )

        loop = asyncio.get_running_loop()
        installed: list[_signal.Signals] = []
        for signum in (_signal.SIGTERM, _signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, self._on_signal, signum.name
                )
                installed.append(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

        self.controller.start()
        reopt_task = loop.create_task(self.reoptimizer.run(), name="reoptimizer")
        playback_task = (
            loop.create_task(self._drive_playback(), name="scenario-playback")
            if self._playback is not None
            else None
        )
        port = await self.api.start()
        print(
            f"repro.service listening on http://{config.host}:{port} "
            f"(m={self.state.infrastructure.m} servers, "
            f"epoch={self.state.epoch})",
            flush=True,
        )
        try:
            await self._stop.wait()
        finally:
            await self.api.stop()
            await self.controller.stop()
            await self.reoptimizer.stop()
            reopt_task.cancel()
            try:
                await reopt_task
            except asyncio.CancelledError:
                pass
            if playback_task is not None:
                playback_task.cancel()
                try:
                    await playback_task
                except asyncio.CancelledError:
                    pass
            self.save_checkpoint()
            for signum in installed:
                loop.remove_signal_handler(signum)
            clear_shutdown()
            print(
                f"repro.service stopped (windows={self.state.scheduler.window_index}, "
                f"tenants={self.state.tenant_count()}, epoch={self.state.epoch})",
                flush=True,
            )
        return 0

    def run(self) -> int:
        """Blocking entry point used by ``python -m repro serve``."""
        return asyncio.run(self.serve())
