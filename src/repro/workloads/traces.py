"""Arrival traces: driving the scheduler with realistic event streams.

The figure benches evaluate single windows; operating studies (and the
paper's "cyclic time window" framing) need *streams*: requests arriving
over time, staying for a lifetime, leaving — plus, for resilience
studies, server failures and recoveries.  :class:`TraceGenerator`
produces such streams from the standard queueing primitives:

* arrivals — Poisson process (exponential inter-arrival times);
* lifetimes — lognormal (long-tailed tenancy, as observed in public
  cloud traces);
* failures — optional Poisson failure process over uniformly chosen
  servers, each with an exponential repair time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError
from repro.model.request import Request
from repro.scheduler.events import (
    ArrivalEvent,
    DepartureEvent,
    ServerFailureEvent,
    ServerRecoveryEvent,
)
from repro.types import SeedLike
from repro.utils.rng import as_generator
from repro.workloads.generator import ScenarioGenerator, ScenarioSpec

__all__ = ["TraceSpec", "Trace", "TraceGenerator"]


@dataclass(frozen=True)
class TraceSpec:
    """Parameters of one event-stream family.

    Parameters
    ----------
    horizon:
        Simulated duration (same unit as the scheduler's windows).
    arrival_rate:
        Mean request arrivals per time unit (Poisson).
    mean_lifetime:
        Mean tenancy duration; lifetimes are lognormal with this mean
        and ``lifetime_sigma`` log-space spread.  ``inf`` disables
        departures.
    lifetime_sigma:
        Lognormal shape parameter.
    failure_rate:
        Mean server failures per time unit (0 disables failures).
    mean_repair_time:
        Mean time a failed server stays down (exponential).
    """

    horizon: float = 10.0
    arrival_rate: float = 2.0
    mean_lifetime: float = 5.0
    lifetime_sigma: float = 0.6
    failure_rate: float = 0.0
    mean_repair_time: float = 2.0

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValidationError("horizon must be > 0")
        if self.arrival_rate <= 0:
            raise ValidationError("arrival_rate must be > 0")
        if self.mean_lifetime <= 0:
            raise ValidationError("mean_lifetime must be > 0")
        if self.lifetime_sigma < 0:
            raise ValidationError("lifetime_sigma must be >= 0")
        if self.failure_rate < 0:
            raise ValidationError("failure_rate must be >= 0")
        if self.mean_repair_time <= 0:
            raise ValidationError("mean_repair_time must be > 0")


@dataclass
class Trace:
    """A generated stream, ready to feed a scheduler."""

    arrivals: list[ArrivalEvent] = field(default_factory=list)
    departures: list[DepartureEvent] = field(default_factory=list)
    failures: list[ServerFailureEvent] = field(default_factory=list)
    recoveries: list[ServerRecoveryEvent] = field(default_factory=list)

    def apply_to(self, scheduler) -> None:
        """Submit the whole trace into a
        :class:`~repro.scheduler.window.TimeWindowScheduler`."""
        for event in self.arrivals:
            scheduler.submit(event.key, event.request, at=event.time)
        for event in self.departures:
            scheduler.schedule_departure(event.key, at=event.time)
        for event in self.failures:
            scheduler.schedule_failure(event.server, at=event.time)
        for event in self.recoveries:
            scheduler.schedule_recovery(event.server, at=event.time)

    def __len__(self) -> int:
        return (
            len(self.arrivals)
            + len(self.departures)
            + len(self.failures)
            + len(self.recoveries)
        )


class TraceGenerator:
    """Seeded factory for :class:`Trace` streams.

    Request *content* is drawn from the standard scenario generator
    (demand mixes, affinity rules), so a trace is "the same workload,
    spread over time".
    """

    def __init__(
        self,
        trace_spec: TraceSpec,
        scenario_spec: ScenarioSpec,
        seed: SeedLike = None,
    ) -> None:
        self.trace_spec = trace_spec
        self.scenario_spec = scenario_spec
        self._rng = as_generator(seed)

    def _lognormal_mean(self, mean: float, sigma: float) -> float:
        """The mu parameter giving a lognormal the requested mean."""
        return float(np.log(mean) - 0.5 * sigma**2)

    def generate(self, key_prefix: str = "req") -> tuple[Trace, list[Request]]:
        """Produce one trace plus the request objects it references."""
        spec = self.trace_spec
        rng = self._rng

        # Request bodies from one oversized scenario (estate discarded).
        expected = max(1, int(spec.horizon * spec.arrival_rate * 1.5))
        content = ScenarioGenerator(
            ScenarioSpec(
                servers=self.scenario_spec.servers,
                datacenters=self.scenario_spec.datacenters,
                vms=max(
                    self.scenario_spec.vms,
                    expected * self.scenario_spec.max_request_size // 2,
                ),
                max_request_size=self.scenario_spec.max_request_size,
                tightness=self.scenario_spec.tightness,
                heterogeneity=self.scenario_spec.heterogeneity,
                affinity_probability=self.scenario_spec.affinity_probability,
                max_vm_fraction=self.scenario_spec.max_vm_fraction,
            ),
            seed=rng,
        ).generate()
        bodies = content.requests

        trace = Trace()
        used: list[Request] = []
        time = 0.0
        index = 0
        mu = self._lognormal_mean(spec.mean_lifetime, spec.lifetime_sigma)
        while True:
            time += float(rng.exponential(1.0 / spec.arrival_rate))
            if time >= spec.horizon or index >= len(bodies):
                break
            key = f"{key_prefix}-{index}"
            request = bodies[index]
            trace.arrivals.append(
                ArrivalEvent(time=time, key=key, request=request)
            )
            used.append(request)
            if np.isfinite(spec.mean_lifetime):
                lifetime = float(rng.lognormal(mu, spec.lifetime_sigma))
                trace.departures.append(
                    DepartureEvent(time=time + lifetime, key=key)
                )
            index += 1

        if spec.failure_rate > 0:
            time = 0.0
            while True:
                time += float(rng.exponential(1.0 / spec.failure_rate))
                if time >= spec.horizon:
                    break
                server = int(rng.integers(0, self.scenario_spec.servers))
                trace.failures.append(
                    ServerFailureEvent(time=time, server=server)
                )
                repair = float(rng.exponential(spec.mean_repair_time))
                trace.recoveries.append(
                    ServerRecoveryEvent(time=time + repair, server=server)
                )
        return trace, used
