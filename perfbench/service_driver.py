"""Open-loop client for the ``service_admit`` workload.

Each rung of the rate ladder boots ``python -m repro serve`` in its own
process, replays one seeded trace of arrivals (``POST /requests``) and
departures (``DELETE /requests/{key}``) at that rung's arrival rate, and
sends SIGTERM.  Every request is recorded with its method, status, due
time, the moment the generator woke for it, send time and completion
time; latency counts from the due time, so a stall charges every request
it delays.  ``repro.service.LoadGenerator`` is not used because its
report mixes POST and DELETE latencies, divides rejections by all
requests and counts 404s as neither failure nor rejection.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

#: Estate the service is booted with (``repro serve`` flags).
SERVE_FLAGS = ("--datacenters", "4", "--window-every", "3600")

#: Boot and shutdown limits; beyond them the run fails instead of hanging.
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


@dataclass
class Record:
    """One request as the client saw it (perf_counter seconds)."""

    method: str
    key: str
    due: float
    woke: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    placement: list[int] | None = None

    @property
    def failed(self) -> bool:
        """Crashes, 5xx, 429, transport errors and unexpected 4xx.

        A 409 answers a rejected arrival, or the departure of a tenant
        whose arrival was rejected; neither is a failure.
        """
        return self.status not in (200, 409)


@dataclass
class Server:
    """One ``repro serve`` process."""

    process: subprocess.Popen
    port: int
    boot_s: float
    peak_rss_mb: float = 0.0
    returncode: int | None = None


def boot(seed: int, servers: int, checkpoint_dir: str, log_path: str) -> Server:
    """Start the service; returns once it prints its listening banner."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath("src"), env.get("PYTHONPATH")])
    )
    command = [
        sys.executable, "-m", "repro", "serve", "--port", "0",
        "--servers", str(servers), "--seed", str(seed),
        "--checkpoint-dir", checkpoint_dir, *SERVE_FLAGS,
    ]
    with open(log_path, "wb") as log:
        spawned = time.perf_counter()
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=log, text=True, env=env
        )
    deadline = spawned + BOOT_TIMEOUT_S
    lines = []
    while time.perf_counter() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        lines.append(line.rstrip())
        if "listening on http://" in line:
            boot_s = time.perf_counter() - spawned
            port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            return Server(process, port, boot_s)
    process.kill()
    process.wait()
    raise RuntimeError(f"service did not start: {lines[-5:]}")


def stop(server: Server) -> None:
    """SIGTERM, wait, and read the server's peak RSS from its rusage."""
    process = server.process
    process.send_signal(signal.SIGTERM)
    deadline = time.perf_counter() + STOP_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(process.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            process.kill()
            pid, status, usage = os.wait4(process.pid, 0)
            break
        time.sleep(0.02)
    process.returncode = server.returncode = os.waitstatus_to_exitcode(status)
    server.peak_rss_mb = usage.ru_maxrss / 1024.0
    process.stdout.close()


def make_events(seed: int, servers: int, arrivals: int, mean_lifetime: float):
    """The first ``arrivals`` arrivals of a seeded trace and the departures
    due before the last of them, as time-sorted (time, method, key, body)
    in trace units (one arrival per unit on average); bodies are encoded
    up front so the replay loop only sends them.  The request mix is
    ``repro.service.LoadGenerator``'s default (four VMs per server, at
    most four per request)."""
    from repro.serialization import request_to_dict
    from repro.workloads.generator import ScenarioSpec
    from repro.workloads.traces import TraceGenerator, TraceSpec

    spec = TraceSpec(
        horizon=arrivals * 1.25, arrival_rate=1.0, mean_lifetime=mean_lifetime
    )
    trace, _ = TraceGenerator(
        spec,
        ScenarioSpec(servers=servers, datacenters=4, vms=4 * servers, max_request_size=4),
        seed=seed,
    ).generate(key_prefix=f"t{seed}")
    kept = trace.arrivals[:arrivals]
    if len(kept) < arrivals:
        raise RuntimeError(f"trace holds {len(kept)} arrivals, wanted {arrivals}")
    end = kept[-1].time
    keys = {event.key for event in kept}
    events = [
        (event.time, "POST", event.key, json.dumps(
            {"key": event.key, "request": request_to_dict(event.request)}
        ).encode())
        for event in kept
    ]
    events += [
        (event.time, "DELETE", event.key, b"")
        for event in trace.departures
        if event.key in keys and event.time <= end
    ]
    events.sort(key=lambda event: event[0])
    return events


async def _exchange(reader, writer, method: str, path: str, body: bytes):
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1") + body
    )
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionResetError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    data = await reader.readexactly(length) if length else b"{}"
    return status, data


async def _replay(port: int, events, seconds_per_unit: float, connections: int):
    pool: asyncio.Queue = asyncio.Queue()
    opened = []
    for _ in range(connections):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        opened.append(writer)
        pool.put_nowait((reader, writer))
    post_status: dict[str, int] = {}
    records: list[Record] = []
    base = events[0][0]
    start = time.perf_counter() + 0.05

    async def fire(at, method, key, body) -> None:
        due = start + (at - base) * seconds_per_unit
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        woke = time.perf_counter()
        if method == "DELETE" and post_status.get(key, 200) != 200:
            return  # the tenant was refused; there is nothing to depart
        record = Record(method, key, due, woke)
        records.append(record)
        path = "/requests" if method == "POST" else f"/requests/{key}"
        reader, writer = await pool.get()
        record.sent = time.perf_counter()
        try:
            record.status, data = await _exchange(reader, writer, method, path, body)
        except (OSError, asyncio.IncompleteReadError):
            record.status = 599  # transport error: counted as failed
            writer.close()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            opened.append(writer)
        record.done = time.perf_counter()
        pool.put_nowait((reader, writer))
        if method == "POST":
            post_status[key] = record.status
            if record.status == 200:
                record.placement = json.loads(data).get("placement")

    tasks = [asyncio.create_task(fire(*event)) for event in events]
    try:
        await asyncio.gather(*tasks)
    finally:
        for writer in opened:
            writer.close()
    return records


async def _get_json(port: int, path: str) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        status, data = await _exchange(reader, writer, "GET", path, b"")
    finally:
        writer.close()
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(data)


def replay(port: int, events, rate: float, connections: int) -> list[Record]:
    """Fire ``events`` open-loop at ``rate`` arrivals per second."""
    return asyncio.run(_replay(port, events, 1.0 / rate, connections))


def fetch_metrics(port: int) -> dict:
    """The server's ``GET /metrics`` body."""
    return asyncio.run(_get_json(port, "/metrics"))
