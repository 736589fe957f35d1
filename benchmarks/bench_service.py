"""Load test of the always-on allocation service (the e2e demo).

Boots the full :class:`~repro.service.app.ServiceApp` in-process on an
ephemeral port, replays a seeded open-loop trace through the real HTTP
stack with :class:`~repro.service.loadgen.LoadGenerator`, forces one
background reoptimization cycle, shuts down gracefully (final
checkpoint) and then proves the session with the conformance oracle
(``verify --check service`` semantics).  Asserted every run:

* **zero 5xx** across the whole replay;
* the reoptimize cycle completes and **improves or preserves** the
  live front's hypervolume (a non-improving plan must be discarded,
  an applied one must not shrink it);
* the shutdown checkpoint **replays byte-identically** through the
  batch scheduler.

Results land in ``BENCH_service.json`` at the repo root: p50/p99
admission latency, sustained requests/sec, rejection/throttle counts
and the reoptimizer's before/after hypervolume.  The default replay is
smoke-scale (~300 requests); ``REPRO_BENCH_FULL=1`` (or
``REPRO_SERVICE_E2E=1``) raises it past the 1 000-request bar of the
acceptance demo.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
from pathlib import Path

from benchmarks.conftest import bench_environment
from repro.service import LoadGenerator, ServiceApp, ServiceConfig
from repro.verify import check_service_conformance
from repro.workloads.generator import ScenarioSpec
from repro.workloads.traces import TraceSpec

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_service.json"

_FULL = bool(
    os.environ.get("REPRO_BENCH_FULL") or os.environ.get("REPRO_SERVICE_E2E")
)
#: Replay size: past the 1k acceptance bar in full mode, smoke otherwise.
MAX_EVENTS = 1200 if _FULL else 300


async def _drive(checkpoint_dir: str) -> dict:
    """Boot, replay, reoptimize, shut down; returns the bench record."""
    config = ServiceConfig(
        port=0,
        servers=16,
        datacenters=2,
        vms=64,
        seed=11,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=50,
        population=16,
        evaluations=320,
        # Periodic cycles stay out of the way; the bench triggers one
        # deterministically through the API instead.
        window_every=3600.0,
    )
    app = ServiceApp(config)
    serve_task = asyncio.create_task(app.serve())
    while app.api is None or app.api.port == 0:
        await asyncio.sleep(0.02)
    port = app.api.port

    generator = LoadGenerator(
        "127.0.0.1",
        port,
        trace_spec=TraceSpec(
            horizon=60.0, arrival_rate=20.0, mean_lifetime=10.0
        ),
        scenario_spec=ScenarioSpec(
            servers=16, datacenters=2, vms=64, max_request_size=4
        ),
        rate=400.0,
        seed=11,
    )
    load = await generator.run(max_events=MAX_EVENTS)

    from repro.service.loadgen import _Client

    client = _Client("127.0.0.1", port)
    status, reopt = await client.request("POST", "/reoptimize")
    assert status == 200, f"reoptimize endpoint answered {status}"
    status, health = await client.request("GET", "/healthz")
    assert status == 200 and health["status"] == "ok"
    await client.close()

    app.shutdown()
    rc = await serve_task
    assert rc == 0

    return {
        "config": {
            "servers": config.servers,
            "vms": config.vms,
            "seed": config.seed,
            "max_events": MAX_EVENTS,
            "full": _FULL,
        },
        "load": load.to_dict(),
        "reoptimize": reopt,
        "windows": app.state.scheduler.window_index,
        "tenants": app.state.tenant_count(),
        "epoch": app.state.epoch,
    }


def test_service_load() -> None:
    """The end-to-end service demo (see module docstring)."""
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        record = asyncio.run(_drive(checkpoint_dir))
        conformance = check_service_conformance(checkpoint_dir)

        load = record["load"]
        assert load["errors_5xx"] == 0, f"5xx responses: {load['statuses']}"
        assert load["requests"] >= MAX_EVENTS * 0.99

        cycle = record["reoptimize"].get("cycle")
        assert record["reoptimize"]["ran"] and cycle is not None
        # Improve-or-preserve: an applied plan must not have shrunk the
        # hypervolume; a shrinking plan must have been discarded.
        if cycle["applied"]:
            assert cycle["hv_after"] >= cycle["hv_before"]
        else:
            assert cycle["reason"] in ("non_improving", "stale", "infeasible")

        assert conformance.ok, conformance.format()

        record["conformance"] = {
            "ok": conformance.ok,
            **conformance.stats,
            "comparisons": conformance.comparisons,
        }
        record["latency_p50"] = load["latency_p50"]
        record["latency_p99"] = load["latency_p99"]
        record["throughput_rps"] = load["throughput_rps"]
        record["environment"] = bench_environment()
        RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
        print(f"\nwrote {RESULT_PATH}")
        print(
            f"p50={load['latency_p50'] * 1e3:.2f}ms "
            f"p99={load['latency_p99'] * 1e3:.2f}ms "
            f"rps={load['throughput_rps']:.0f} "
            f"rejected={load['rejected']} throttled={load['throttled']}"
        )


if __name__ == "__main__":
    test_service_load()
