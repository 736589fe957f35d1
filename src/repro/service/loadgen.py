"""Open-loop load generator for the allocation service.

Replays a seeded :class:`~repro.workloads.traces.TraceGenerator`
stream against a running service over real HTTP: arrivals become
``POST /requests``, departures become ``DELETE /requests/{key}``, and
event times are compressed onto a wall-clock schedule (``rate``
requests/second).  The generator is **open-loop** — every request
fires at its scheduled instant whether or not earlier ones have been
answered — and latency is measured from the *scheduled* fire time, so
a slow service shows up as rising latency instead of being hidden by
coordinated omission.

The report (:class:`LoadReport`) carries what the bench and the CI
smoke job assert on: status-code histogram, p50/p90/p99 latency,
achieved throughput, rejection rate and the zero-5xx flag.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any

from repro.serialization import request_to_dict
from repro.workloads.generator import ScenarioSpec
from repro.workloads.traces import TraceGenerator, TraceSpec

__all__ = ["LoadReport", "LoadGenerator", "percentile"]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100] (0 for an empty
    sample): the smallest value with at least ``q``% of the sample at
    or below it."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) / 100.0)
    return ordered[min(len(ordered), max(1, rank)) - 1]


@dataclass
class LoadReport:
    """What one load-generation run observed."""

    requests: int = 0
    statuses: dict[int, int] = field(default_factory=dict)
    accepted: int = 0
    rejected: int = 0
    throttled: int = 0
    errors: int = 0
    latencies: list[float] = field(default_factory=list)
    elapsed: float = 0.0

    def record(self, status: int, latency: float) -> None:
        """Fold one response into the tallies."""
        self.requests += 1
        self.statuses[status] = self.statuses.get(status, 0) + 1
        self.latencies.append(latency)
        if status == 200:
            self.accepted += 1
        elif status == 409:
            self.rejected += 1
        elif status == 429:
            self.throttled += 1
        elif status >= 500:
            self.errors += 1

    @property
    def ok(self) -> bool:
        """Zero 5xx responses — the smoke-test bar."""
        return self.errors == 0

    @property
    def rejection_rate(self) -> float:
        """Fraction of answered requests rejected by admission."""
        return self.rejected / self.requests if self.requests else 0.0

    @property
    def throughput(self) -> float:
        """Achieved requests/second over the whole run."""
        return self.requests / self.elapsed if self.elapsed > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON form for ``BENCH_service.json``."""
        return {
            "requests": self.requests,
            "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
            "accepted": self.accepted,
            "rejected": self.rejected,
            "throttled": self.throttled,
            "errors_5xx": self.errors,
            "rejection_rate": self.rejection_rate,
            "throughput_rps": self.throughput,
            "latency_p50": percentile(self.latencies, 50),
            "latency_p90": percentile(self.latencies, 90),
            "latency_p99": percentile(self.latencies, 99),
            "elapsed": self.elapsed,
        }


class _Client:
    """Minimal keep-alive HTTP/1.1 client pool (stdlib only)."""

    def __init__(self, host: str, port: int, size: int = 8) -> None:
        self.host = host
        self.port = port
        self.size = size
        self._pool: asyncio.Queue = asyncio.Queue()
        self._created = 0

    async def _connection(self):
        if self._pool.empty() and self._created < self.size:
            self._created += 1
            return await asyncio.open_connection(self.host, self.port)
        return await self._pool.get()

    async def request(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> tuple[int, dict[str, Any]]:
        """One request/response round trip; reconnects once on EOF."""
        payload = (json.dumps(body).encode() if body is not None else b"")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "\r\n"
        ).encode("latin-1")
        for attempt in (0, 1):
            reader, writer = await self._connection()
            try:
                writer.write(head + payload)
                await writer.drain()
                status_line = await reader.readline()
                if not status_line:
                    raise ConnectionResetError("server closed connection")
                status = int(status_line.split()[1])
                length = 0
                while True:
                    line = await reader.readline()
                    if not line or line in (b"\r\n", b"\n"):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value.strip())
                data = await reader.readexactly(length) if length else b"{}"
                await self._pool.put((reader, writer))
                return status, json.loads(data.decode() or "{}")
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                writer.close()
                self._created -= 1
                if attempt:
                    raise
        raise ConnectionResetError  # pragma: no cover - unreachable

    async def close(self) -> None:
        """Close every pooled connection."""
        while not self._pool.empty():
            _, writer = self._pool.get_nowait()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


class LoadGenerator:
    """Seeded open-loop trace replay against a live service.

    Parameters
    ----------
    host, port:
        Where the service listens.
    trace_spec, scenario_spec:
        The workload family (same specs the batch simulations use), so
        a load test is "the same workload the scheduler was benched
        on, but over the wire".
    rate:
        Wall-clock requests/second the replay aims for: trace event
        times are scaled so the mean arrival spacing is ``1 / rate``.
    seed:
        Trace seed — two runs with one seed replay identical streams.
    """

    def __init__(
        self,
        host: str,
        port: int,
        trace_spec: TraceSpec | None = None,
        scenario_spec: ScenarioSpec | None = None,
        rate: float = 50.0,
        seed: int = 0,
        connections: int = 8,
    ) -> None:
        self.host = host
        self.port = port
        self.trace_spec = trace_spec or TraceSpec(
            horizon=20.0, arrival_rate=10.0, mean_lifetime=8.0
        )
        self.scenario_spec = scenario_spec or ScenarioSpec(
            servers=16, datacenters=2, vms=64, max_request_size=4
        )
        self.rate = float(rate)
        self.seed = int(seed)
        self.connections = int(connections)

    async def run(self, max_events: int | None = None) -> LoadReport:
        """Replay the trace; returns the observed :class:`LoadReport`."""
        generator = TraceGenerator(
            self.trace_spec, self.scenario_spec, seed=self.seed
        )
        trace, _ = generator.generate(key_prefix=f"load-{self.seed}")
        events: list[tuple[float, str, str, dict[str, Any] | None]] = []
        for event in trace.arrivals:
            events.append(
                (
                    event.time,
                    "POST",
                    "/requests",
                    {"key": event.key, "request": request_to_dict(event.request)},
                )
            )
        for event in trace.departures:
            events.append((event.time, "DELETE", f"/requests/{event.key}", None))
        events.sort(key=lambda item: item[0])
        if max_events is not None:
            events = events[:max_events]
        if not events:
            return LoadReport()

        # Compress trace time onto the wall clock: `arrival_rate`
        # events per trace-time-unit should fire at `rate` per second.
        scale = self.trace_spec.arrival_rate / self.rate
        client = _Client(self.host, self.port, size=self.connections)
        report = LoadReport()
        started = time.perf_counter()
        lock = asyncio.Lock()

        async def fire(
            at: float, method: str, path: str, body: dict[str, Any] | None
        ) -> None:
            """Fire one event at its scheduled offset and record it."""
            delay = at - (time.perf_counter() - started)
            if delay > 0:
                await asyncio.sleep(delay)
            scheduled = started + at
            try:
                status, _ = await client.request(method, path, body)
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                status = 599
            latency = time.perf_counter() - scheduled
            async with lock:
                report.record(status, latency)

        base = events[0][0]
        tasks = [
            asyncio.create_task(
                fire((at - base) * scale, method, path, body)
            )
            for at, method, path, body in events
        ]
        await asyncio.gather(*tasks)
        report.elapsed = time.perf_counter() - started
        await client.close()
        return report
