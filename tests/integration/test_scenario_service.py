"""Integration tests: dynamic scenario playback through the live service.

``repro serve --scenario NAME`` compiles a registered dynamic scenario
and plays its event stream through live admission, window by window.
These tests boot the asyncio app in-process, wait for playback to
finish, and then prove the checkpointed admission log replays
byte-identically through the batch oracle
(``verify --check service``) — the dynamic scenarios and the service
are the same machine.
"""

from __future__ import annotations

import asyncio

from repro.service import ServiceApp, ServiceConfig
from repro.service.loadgen import _Client
from repro.verify import check_service_conformance
from repro.workloads.scenarios import compile_scenario


def _play(tmp_path, name: str, seed: int) -> str:
    checkpoint_dir = str(tmp_path / "state")
    app = ServiceApp(
        ServiceConfig(
            port=0,
            scenario=name,
            seed=seed,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=3,
            window_every=3600.0,
        )
    )

    async def body():
        serve_task = asyncio.create_task(app.serve())
        try:
            await asyncio.wait_for(app.playback_done.wait(), timeout=120)
        finally:
            app.shutdown()
            await serve_task

    asyncio.run(body())
    return checkpoint_dir


def test_scenario_playback_replays_byte_identically(tmp_path):
    seed = 4
    checkpoint_dir = _play(tmp_path, "failure_storm", seed)
    report = check_service_conformance(checkpoint_dir, seed=seed)
    assert report.ok, report.format()


def test_drain_scenario_round_trips_through_admission_log(tmp_path):
    seed = 1
    checkpoint_dir = _play(tmp_path, "maintenance_drain", seed)
    report = check_service_conformance(checkpoint_dir, seed=seed)
    assert report.ok, report.format()


def test_playback_covers_the_compiled_stream(tmp_path):
    seed = 2
    name = "steady_churn"
    compiled = compile_scenario(name, seed=seed)
    app = ServiceApp(
        ServiceConfig(port=0, scenario=name, seed=seed, window_every=3600.0)
    )

    async def body():
        serve_task = asyncio.create_task(app.serve())
        try:
            while app.api is None or app.api.port == 0:
                await asyncio.sleep(0.02)
            await asyncio.wait_for(app.playback_done.wait(), timeout=120)
            client = _Client("127.0.0.1", app.api.port)
            try:
                _, placements = await client.request("GET", "/placements")
            finally:
                await client.close()
            return placements
        finally:
            app.shutdown()
            await serve_task

    placements = asyncio.run(body())
    # Every resident the service ended with is a key the compiled
    # stream introduced, and at least one window of churn happened.
    keys = {event.key for event in compiled.arrivals}
    assert set(placements["residents"]) <= keys
    assert placements["epoch"] >= 1
