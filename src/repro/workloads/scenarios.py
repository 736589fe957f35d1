"""Dynamic scenario universe: named, seeded churn/traffic/failure streams.

The static generator (:mod:`repro.workloads.generator`) produces one
window of requests; the paper's "cyclic time window" framing — and any
operations question about the allocator stack — needs *trajectories*:
tenants arriving and leaving, traffic that swells and recedes, servers
crashing or drained for maintenance, tenants that autoscale.  This
module is the registry of such trajectories:

* :class:`DynamicScenarioSpec` — the parameter set of one scenario
  family: estate shape, horizon, arrival curve (steady / diurnal /
  flash-crowd), lifetime distribution, failure and maintenance-drain
  processes, autoscaling behaviour;
* :func:`compile_scenario` — spec + seed → :class:`CompiledScenario`,
  a concrete estate plus a fully materialized, time-sorted event
  stream.  Compilation is deterministic per seed, and every stochastic
  axis draws from its own :func:`~repro.utils.rng.derive_sequence`
  child, so e.g. raising ``failure_rate`` cannot shift the arrival
  times (property-tested in ``tests/property/test_prop_scenarios.py``);
* :meth:`CompiledScenario.run` — replay the stream through a
  :class:`~repro.scheduler.window.TimeWindowScheduler` and fold the
  per-window reports into
  :class:`~repro.scheduler.summary.ScenarioMetrics` (the paper's four
  criteria plus SLA violations and migration churn);
* :func:`register_scenario` / :func:`get_scenario` /
  :func:`scenario_names` — the named registry behind
  ``python -m repro scenario list|run`` and ``serve --scenario NAME``.

Trajectory-relevant parameters (rates, horizon, estate, seed) feed the
event stream; ``window_length`` and ``reoptimize_every`` only decide
how the *scheduler* batches and reconfigures, so
:meth:`CompiledScenario.event_fingerprint` is invariant under them —
the anchor of the dynamic metamorphic laws in
:mod:`repro.verify.dynamic`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from repro.allocator import Allocator
from repro.errors import ValidationError
from repro.model.infrastructure import Infrastructure
from repro.scheduler.events import (
    ArrivalEvent,
    DepartureEvent,
    ServerFailureEvent,
    ServerRecoveryEvent,
)
from repro.scheduler.summary import ScenarioMetrics, scenario_metrics
from repro.scheduler.window import TimeWindowScheduler, WindowReport
from repro.serialization import infrastructure_to_dict, request_to_dict
from repro.telemetry import get_registry
from repro.utils.rng import derive_sequence, root_sequence
from repro.workloads.generator import ScenarioGenerator, ScenarioSpec

__all__ = [
    "DynamicScenarioSpec",
    "CompiledScenario",
    "ScenarioResult",
    "compile_scenario",
    "register_scenario",
    "get_scenario",
    "scenario_names",
]

_TRAFFIC_SHAPES = ("steady", "diurnal", "flash")

#: Stream coordinates below ``root_sequence(seed)``.  One child per
#: stochastic axis: content (estate + request bodies, which itself
#: splits per-axis inside :class:`ScenarioGenerator`), arrival times,
#: lifetimes, failures, drains, autoscale decisions.
_S_CONTENT = 0
_S_ARRIVALS = 1
_S_LIFETIMES = 2
_S_FAILURES = 3
_S_DRAINS = 4
_S_AUTOSCALE = 5


@dataclass(frozen=True)
class DynamicScenarioSpec:
    """Parameters of one dynamic scenario family.

    Times are in the scheduler's logical unit; rates are events per
    unit time.  ``window_length`` and ``reoptimize_every`` shape how
    the stream is *scheduled*, not the stream itself — see the module
    docstring.
    """

    name: str
    description: str = ""
    # --- estate ---
    servers: int = 12
    datacenters: int = 2
    heterogeneity: float = 0.3
    # --- horizon and batching ---
    horizon: float = 8.0
    window_length: float = 1.0
    # --- arrival process ---
    arrival_rate: float = 2.0
    traffic: str = "steady"
    traffic_amplitude: float = 0.6
    traffic_period: float = 8.0
    flash_time: float = 4.0
    flash_width: float = 0.5
    flash_factor: float = 4.0
    # --- tenancy ---
    mean_lifetime: float = 4.0
    lifetime_sigma: float = 0.5
    # --- platform flow events ---
    failure_rate: float = 0.0
    mean_repair_time: float = 2.0
    drain_count: int = 0
    drain_duration: float = 2.0
    # --- autoscaling tenants ---
    autoscale_fraction: float = 0.0
    autoscale_replicas: int = 2
    autoscale_delay: float = 1.0
    autoscale_lifetime: float = 2.0
    # --- reconfiguration cadence (0 = never reoptimize) ---
    reoptimize_every: int = 0
    # --- request content ---
    max_request_size: int = 4
    tightness: float = 0.5
    affinity_probability: float = 0.4

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("scenario name must be non-empty")
        if self.servers < 1:
            raise ValidationError("servers must be >= 1")
        if self.datacenters < 1 or self.datacenters > self.servers:
            raise ValidationError("datacenters must lie in [1, servers]")
        if self.horizon <= 0 or self.window_length <= 0:
            raise ValidationError("horizon and window_length must be > 0")
        if self.arrival_rate <= 0:
            raise ValidationError("arrival_rate must be > 0")
        if self.traffic not in _TRAFFIC_SHAPES:
            raise ValidationError(
                f"traffic must be one of {_TRAFFIC_SHAPES}, got {self.traffic!r}"
            )
        if self.traffic_amplitude < 0 or self.traffic_amplitude >= 1:
            raise ValidationError("traffic_amplitude must lie in [0, 1)")
        if self.traffic_period <= 0 or self.flash_width <= 0:
            raise ValidationError("traffic_period and flash_width must be > 0")
        if self.flash_factor < 0:
            raise ValidationError("flash_factor must be >= 0")
        if self.mean_lifetime <= 0 or self.lifetime_sigma < 0:
            raise ValidationError(
                "mean_lifetime must be > 0 and lifetime_sigma >= 0"
            )
        if self.failure_rate < 0 or self.mean_repair_time <= 0:
            raise ValidationError(
                "failure_rate must be >= 0 and mean_repair_time > 0"
            )
        if self.drain_count < 0 or self.drain_duration <= 0:
            raise ValidationError(
                "drain_count must be >= 0 and drain_duration > 0"
            )
        if not (0.0 <= self.autoscale_fraction <= 1.0):
            raise ValidationError("autoscale_fraction must lie in [0, 1]")
        if self.autoscale_replicas < 1 or self.autoscale_delay <= 0:
            raise ValidationError(
                "autoscale_replicas must be >= 1 and autoscale_delay > 0"
            )
        if self.autoscale_lifetime <= 0:
            raise ValidationError("autoscale_lifetime must be > 0")
        if self.reoptimize_every < 0:
            raise ValidationError("reoptimize_every must be >= 0")

    @property
    def windows(self) -> int:
        """Number of scheduler windows covering the horizon."""
        return math.ceil(self.horizon / self.window_length)

    def intensity(self, time: float) -> float:
        """Instantaneous arrival rate of the traffic curve at ``time``."""
        if self.traffic == "diurnal":
            shape = 1.0 + self.traffic_amplitude * math.sin(
                2.0 * math.pi * time / self.traffic_period
            )
        elif self.traffic == "flash":
            shape = 1.0 + self.flash_factor * math.exp(
                -(((time - self.flash_time) / self.flash_width) ** 2)
            )
        else:
            shape = 1.0
        return self.arrival_rate * shape

    @property
    def peak_rate(self) -> float:
        """Upper bound of :meth:`intensity` (thinning envelope)."""
        if self.traffic == "diurnal":
            return self.arrival_rate * (1.0 + self.traffic_amplitude)
        if self.traffic == "flash":
            return self.arrival_rate * (1.0 + self.flash_factor)
        return self.arrival_rate


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario run: per-window reports and the folded metrics."""

    name: str
    seed: int | None
    algorithm: str
    reports: tuple[WindowReport, ...]
    metrics: ScenarioMetrics
    #: blake2b over the final scheduler ``state_dict`` (canonical JSON) —
    #: the byte-identity anchor of the per-seed determinism tests.
    ledger_fingerprint: str


@dataclass
class CompiledScenario:
    """One spec + seed materialized: estate plus a concrete event stream."""

    spec: DynamicScenarioSpec
    seed: int | None
    infrastructure: Infrastructure
    arrivals: list[ArrivalEvent]
    departures: list[DepartureEvent]
    failures: list[ServerFailureEvent]
    drains: list[ServerFailureEvent]
    recoveries: list[ServerRecoveryEvent]

    def __len__(self) -> int:
        return (
            len(self.arrivals)
            + len(self.departures)
            + len(self.failures)
            + len(self.drains)
            + len(self.recoveries)
        )

    # ------------------------------------------------------------------
    # Stream access
    # ------------------------------------------------------------------
    def events_payload(self) -> list[dict]:
        """The stream as JSON-able records, time-sorted (stable).

        Request bodies are serialized in full, so two payloads are equal
        exactly when the streams would drive a scheduler identically.
        """
        records: list[tuple[float, int, dict]] = []
        for event in self.arrivals:
            records.append(
                (
                    event.time,
                    0,
                    {
                        "type": "arrival",
                        "time": event.time,
                        "key": event.key,
                        "request": request_to_dict(event.request),
                    },
                )
            )
        for event in self.departures:
            records.append(
                (
                    event.time,
                    1,
                    {"type": "departure", "time": event.time, "key": event.key},
                )
            )
        for event in [*self.failures, *self.drains]:
            records.append(
                (
                    event.time,
                    2,
                    {
                        "type": "failure",
                        "time": event.time,
                        "server": event.server,
                        "reason": event.reason,
                    },
                )
            )
        for event in self.recoveries:
            records.append(
                (
                    event.time,
                    3,
                    {
                        "type": "recovery",
                        "time": event.time,
                        "server": event.server,
                    },
                )
            )
        records.sort(key=lambda item: (item[0], item[1]))
        return [record for _, _, record in records]

    def event_fingerprint(self) -> str:
        """blake2b digest of the event stream alone (estate excluded).

        Invariant under every parameter that does not shape the
        trajectory — ``window_length``, ``reoptimize_every`` — which the
        property suite pins.
        """
        payload = json.dumps(
            self.events_payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()

    def fingerprint(self) -> str:
        """blake2b digest of estate + event stream (full instance identity)."""
        payload = json.dumps(
            {
                "infrastructure": infrastructure_to_dict(self.infrastructure),
                "events": self.events_payload(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def apply_to(self, scheduler: TimeWindowScheduler) -> None:
        """Submit the whole stream into ``scheduler``."""
        for event in self.arrivals:
            scheduler.submit(event.key, event.request, at=event.time)
        for event in self.departures:
            scheduler.schedule_departure(event.key, at=event.time)
        for event in self.failures:
            scheduler.schedule_failure(event.server, at=event.time)
        for event in self.drains:
            scheduler.schedule_drain(event.server, at=event.time)
        for event in self.recoveries:
            scheduler.schedule_recovery(event.server, at=event.time)

    def build_scheduler(
        self, allocator: Allocator, **kwargs
    ) -> TimeWindowScheduler:
        """A scheduler over this estate with the stream already enqueued."""
        scheduler = TimeWindowScheduler(
            infrastructure=self.infrastructure,
            allocator=allocator,
            window_length=self.spec.window_length,
            **kwargs,
        )
        self.apply_to(scheduler)
        return scheduler

    def run(
        self,
        allocator: Allocator,
        *,
        max_windows: int | None = None,
        reoptimize_allocator: Allocator | None = None,
    ) -> ScenarioResult:
        """Replay the stream through a scheduler and fold the metrics.

        Migration churn is accounted here, where both sides of every
        move are visible: a displaced tenant's pre-failure placement is
        snapshotted before each window and diffed against its
        re-placement, and applied reoptimization plans contribute their
        ``plan.size``.  The allocator's lifecycle stays with the caller
        (``run`` does not :meth:`~TimeWindowScheduler.close` it).
        """
        spec = self.spec
        scheduler = self.build_scheduler(allocator)
        cap = max_windows if max_windows is not None else spec.windows + 2
        reports: list[WindowReport] = []
        moves = 0
        while scheduler.pending_events and len(reports) < cap:
            previous = {
                key: scheduler.state.previous_assignment(key).copy()
                for key in scheduler.state.tenants()
            }
            report = scheduler.run_window()
            reports.append(report)
            accepted = set(report.accepted)
            for key in report.displaced:
                if key in accepted and key in previous:
                    placed = scheduler.state.previous_assignment(key)
                    moves += int(np.count_nonzero(placed != previous[key]))
            if (
                spec.reoptimize_every
                and scheduler.window_index % spec.reoptimize_every == 0
                and scheduler.state.tenants()
            ):
                result = scheduler.reoptimize(reoptimize_allocator)
                if result is not None:
                    outcome, plan = result
                    applied = (
                        bool(outcome.accepted.all()) and outcome.violations == 0
                    )
                    if applied:
                        moves += plan.size
        if not reports:
            raise ValidationError(
                f"scenario {spec.name!r} compiled to an empty stream"
            )
        metrics = scenario_metrics(reports, migration_moves=moves)
        # Trajectory state only: the allocator entry carries its private
        # tie-break RNG, whose *state* is allocator identity, not
        # scenario identity (its decisions are already pinned through
        # residents and committed usage).
        state = scheduler.state_dict()
        state.pop("allocator", None)
        ledger = json.dumps(state, sort_keys=True, separators=(",", ":"))
        registry = get_registry()
        registry.count("scenario.runs", scenario=spec.name)
        registry.count("scenario.windows", metrics.windows, scenario=spec.name)
        registry.count("scenario.events", len(self), scenario=spec.name)
        registry.count(
            "scenario.migration_moves", moves, scenario=spec.name
        )
        registry.count(
            "scenario.sla_violations",
            metrics.sla_violations,
            scenario=spec.name,
        )
        return ScenarioResult(
            name=spec.name,
            seed=self.seed,
            algorithm=getattr(allocator, "name", type(allocator).__name__),
            reports=tuple(reports),
            metrics=metrics,
            ledger_fingerprint=hashlib.blake2b(
                ledger.encode(), digest_size=16
            ).hexdigest(),
        )


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def _lognormal_mu(mean: float, sigma: float) -> float:
    """The mu giving a lognormal distribution the requested mean."""
    return float(np.log(mean) - 0.5 * sigma**2)


def compile_scenario(
    spec: DynamicScenarioSpec | str, seed: int | None = 0
) -> CompiledScenario:
    """Materialize ``spec`` (or a registered name) at ``seed``.

    Arrivals follow the spec's traffic curve via Poisson thinning: a
    homogeneous process at :attr:`~DynamicScenarioSpec.peak_rate` is
    subsampled with probability ``intensity(t) / peak_rate``, so the
    same seed yields a superset-consistent stream across traffic shapes
    of equal peak.  Departures, repairs and autoscale replicas falling
    beyond the horizon are dropped — they could never be processed
    within the scenario's windows, and dropping them bounds every run.
    """
    if isinstance(spec, str):
        spec = get_scenario(spec)
    root = root_sequence(seed)
    rng_arrivals = np.random.default_rng(derive_sequence(root, _S_ARRIVALS))
    rng_lifetimes = np.random.default_rng(derive_sequence(root, _S_LIFETIMES))
    rng_failures = np.random.default_rng(derive_sequence(root, _S_FAILURES))
    rng_drains = np.random.default_rng(derive_sequence(root, _S_DRAINS))
    rng_autoscale = np.random.default_rng(derive_sequence(root, _S_AUTOSCALE))

    # Arrival times first (their count sizes the content request pool).
    peak = spec.peak_rate
    times: list[float] = []
    time = 0.0
    while True:
        time += float(rng_arrivals.exponential(1.0 / peak))
        if time >= spec.horizon:
            break
        if rng_arrivals.random() <= spec.intensity(time) / peak:
            times.append(time)

    # Request bodies from the static generator: one oversized window,
    # each body consumed in arrival order.  The content sub-root keeps
    # estate and bodies byte-stable against every trajectory knob.
    content = ScenarioGenerator(
        ScenarioSpec(
            servers=spec.servers,
            datacenters=spec.datacenters,
            vms=max(len(times), 1) * spec.max_request_size,
            max_request_size=spec.max_request_size,
            tightness=spec.tightness,
            heterogeneity=spec.heterogeneity,
            affinity_probability=spec.affinity_probability,
        ),
        seed=derive_sequence(root, _S_CONTENT),
    ).generate()
    bodies = content.requests

    arrivals: list[ArrivalEvent] = []
    departures: list[DepartureEvent] = []
    mu = _lognormal_mu(spec.mean_lifetime, spec.lifetime_sigma)
    for index, at in enumerate(times):
        if index >= len(bodies):
            break  # content pool exhausted (oversized, so effectively never)
        key = f"{spec.name}-{index}"
        body = bodies[index]
        arrivals.append(ArrivalEvent(time=at, key=key, request=body))
        lifetime = float(rng_lifetimes.lognormal(mu, spec.lifetime_sigma))
        if at + lifetime < spec.horizon:
            departures.append(DepartureEvent(time=at + lifetime, key=key))
        # Autoscaling tenants clone themselves: replicas of the same
        # body arrive staggered after the parent and retire on a short
        # scale-in lifetime.
        if (
            spec.autoscale_fraction > 0
            and rng_autoscale.random() < spec.autoscale_fraction
        ):
            for replica in range(spec.autoscale_replicas):
                scale_out = at + spec.autoscale_delay * (replica + 1)
                if scale_out >= spec.horizon:
                    break
                replica_key = f"{key}-as{replica}"
                arrivals.append(
                    ArrivalEvent(time=scale_out, key=replica_key, request=body)
                )
                scale_in = scale_out + spec.autoscale_lifetime
                if scale_in < spec.horizon:
                    departures.append(
                        DepartureEvent(time=scale_in, key=replica_key)
                    )

    failures: list[ServerFailureEvent] = []
    recoveries: list[ServerRecoveryEvent] = []
    if spec.failure_rate > 0:
        time = 0.0
        while True:
            time += float(rng_failures.exponential(1.0 / spec.failure_rate))
            if time >= spec.horizon:
                break
            server = int(rng_failures.integers(0, spec.servers))
            failures.append(ServerFailureEvent(time=time, server=server))
            repair = time + float(
                rng_failures.exponential(spec.mean_repair_time)
            )
            if repair < spec.horizon:
                recoveries.append(
                    ServerRecoveryEvent(time=repair, server=server)
                )

    drains: list[ServerFailureEvent] = []
    if spec.drain_count > 0:
        count = min(spec.drain_count, spec.servers)
        servers = rng_drains.choice(spec.servers, size=count, replace=False)
        starts = np.sort(
            rng_drains.uniform(
                0.25 * spec.horizon, 0.75 * spec.horizon, size=count
            )
        )
        for server, start in zip(servers, starts):
            drains.append(
                ServerFailureEvent(
                    time=float(start), server=int(server), reason="drain"
                )
            )
            back = float(start) + spec.drain_duration
            if back < spec.horizon:
                recoveries.append(
                    ServerRecoveryEvent(time=back, server=int(server))
                )

    return CompiledScenario(
        spec=spec,
        seed=seed,
        infrastructure=content.infrastructure,
        arrivals=arrivals,
        departures=departures,
        failures=failures,
        drains=drains,
        recoveries=recoveries,
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, DynamicScenarioSpec] = {}


def register_scenario(spec: DynamicScenarioSpec) -> DynamicScenarioSpec:
    """Add ``spec`` to the named registry (idempotent per name+spec)."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing != spec:
        raise ValidationError(
            f"scenario {spec.name!r} already registered with different "
            "parameters"
        )
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> DynamicScenarioSpec:
    """Look a registered scenario up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown scenario {name!r}; choose from {scenario_names()}"
        ) from None


def scenario_names() -> list[str]:
    """Registered scenario names, sorted."""
    return sorted(_REGISTRY)


# ----------------------------------------------------------------------
# The built-in universe.  All deliberately small (8-24 servers, short
# horizons) so a full registry sweep stays test-suite fast; scale knobs
# are one `replace()` away for real studies.
# ----------------------------------------------------------------------
register_scenario(
    DynamicScenarioSpec(
        name="steady_churn",
        description="Poisson arrivals and lognormal tenancies at a "
        "comfortable load; the dynamic baseline.",
        servers=12,
        arrival_rate=2.5,
        mean_lifetime=3.0,
    )
)

register_scenario(
    DynamicScenarioSpec(
        name="diurnal",
        description="Sinusoidal day/night arrival curve over one full "
        "period; load peaks mid-horizon.",
        servers=12,
        traffic="diurnal",
        traffic_amplitude=0.7,
        traffic_period=8.0,
        arrival_rate=2.0,
        mean_lifetime=2.5,
    )
)

register_scenario(
    DynamicScenarioSpec(
        name="flash_crowd",
        description="Quiet baseline with a sharp Gaussian arrival spike "
        "mid-horizon (viral-event traffic).",
        servers=16,
        traffic="flash",
        flash_time=4.0,
        flash_width=0.5,
        flash_factor=5.0,
        arrival_rate=1.0,
        mean_lifetime=2.0,
    )
)

register_scenario(
    DynamicScenarioSpec(
        name="failure_storm",
        description="Steady churn under an aggressive server failure "
        "process with exponential repairs.",
        servers=16,
        arrival_rate=2.0,
        mean_lifetime=4.0,
        failure_rate=0.8,
        mean_repair_time=1.5,
    )
)

register_scenario(
    DynamicScenarioSpec(
        name="maintenance_drain",
        description="Planned maintenance: several servers drained "
        "mid-horizon (forced evacuation) and returned after a fixed "
        "downtime.",
        servers=12,
        arrival_rate=2.0,
        mean_lifetime=5.0,
        drain_count=3,
        drain_duration=2.0,
    )
)

register_scenario(
    DynamicScenarioSpec(
        name="autoscale_tenants",
        description="Half the tenants scale out clone replicas shortly "
        "after arriving and scale them back in (bursty per-tenant "
        "demand).",
        servers=16,
        arrival_rate=1.5,
        mean_lifetime=4.0,
        autoscale_fraction=0.5,
        autoscale_replicas=2,
        autoscale_delay=0.8,
        autoscale_lifetime=2.0,
    )
)

register_scenario(
    DynamicScenarioSpec(
        name="hetero_fleet",
        description="Strongly heterogeneous estate (mixed hardware "
        "generations) under steady churn with periodic reoptimization.",
        servers=16,
        heterogeneity=0.8,
        arrival_rate=2.0,
        mean_lifetime=3.5,
        reoptimize_every=4,
    )
)
