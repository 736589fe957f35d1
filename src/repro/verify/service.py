"""Service conformance: the live control plane vs the batch scheduler.

The service's claim (``docs/SERVICE.md``) is that live admission is
just the paper's cyclic time-window model run in micro-batches: every
mutation lands in a replayable admission log, and replaying that log
through a *fresh* batch :class:`~repro.scheduler.window.TimeWindowScheduler`
with the same admission allocator must reproduce the live
state byte for byte — residents, genes, committed-usage ledger, clock.
This module is that differential oracle:

1. obtain a live session — either synthetically (drive a seeded trace
   through :class:`~repro.service.state.ServiceState` in-process, plus
   one real background-style reoptimization pass) or from a service
   checkpoint directory written by ``python -m repro serve``;
2. replay its admission log through
   :func:`~repro.service.state.replay_admission_log`;
3. compare per-record decisions and final state bytes, then run the
   PR 3 invariant catalog over the replayed placements.

``python -m repro verify --check service[=DIR]`` runs this from the
CLI.
"""

from __future__ import annotations

import numpy as np

from repro.ea.config import NSGAConfig
from repro.verify.checks import Report
from repro.verify.invariants import CheckContext, run_invariants
from repro.workloads.generator import ScenarioSpec
from repro.workloads.traces import TraceGenerator, TraceSpec

__all__ = ["check_service_conformance"]

#: Invariants meaningful for a committed (all-accepted) placement.
_PLACEMENT_INVARIANTS = (
    "assignment_well_formed",
    "capacity_respected",
    "group_closure",
)


def _synthetic_session(
    seed: int, servers: int, vms: int, windows: int
):
    """Drive a seeded trace through a live ServiceState in-process."""
    from repro.service.reoptimizer import shadow_reoptimize
    from repro.service.state import ServiceState

    from repro.workloads.generator import ScenarioGenerator

    scenario_spec = ScenarioSpec(
        servers=servers, datacenters=2, vms=max(vms, 8), max_request_size=3
    )
    estate = ScenarioGenerator(scenario_spec, seed=seed).generate().infrastructure
    trace, _ = TraceGenerator(
        TraceSpec(horizon=float(windows), arrival_rate=3.0, mean_lifetime=4.0),
        scenario_spec,
        seed=seed,
    ).generate(key_prefix=f"svc-{seed}")
    state = ServiceState(estate, seed=seed)

    # Bucket trace events into admission micro-batches by unit time,
    # exactly as the live admission worker would close them.
    events = sorted(
        [("arrival", e.time, e.key, e.request) for e in trace.arrivals]
        + [("departure", e.time, e.key, None) for e in trace.departures],
        key=lambda item: item[1],
    )
    hosted: set[str] = set()
    for window in range(windows):
        arrivals = []
        departures = []
        for kind, at, key, request in events:
            if not window <= at < window + 1:
                continue
            if kind == "arrival":
                arrivals.append((key, request))
            elif key in hosted:
                departures.append(key)
        report = state.admit(arrivals=arrivals, departures=departures)
        hosted |= set(report.accepted)
        hosted -= set(report.departures)

        # One mid-session background-style reoptimization pass.  The
        # production hypervolume guard is deliberately skipped here:
        # conformance is about the log replaying exactly, and a
        # reoptimize record must be part of what gets replayed.
        if window == windows // 2 and state.tenant_count():
            payload, epoch = state.snapshot()
            result = shadow_reoptimize(
                estate,
                payload,
                NSGAConfig(population_size=12, max_evaluations=144, seed=seed),
            )
            if result["feasible"]:
                state.apply_reoptimization(result["assignments"], epoch)
    return estate, state


def _live_from_checkpoint(checkpoint_dir: str):
    """Load the live side from a ``repro serve`` checkpoint directory."""
    from repro.runtime.checkpoint import CheckpointManager
    from repro.serialization import infrastructure_from_dict
    from repro.service.app import SERVICE_CHECKPOINT_KIND, SERVICE_CHECKPOINT_NAME
    from repro.service.state import ServiceState

    payload = CheckpointManager(checkpoint_dir).load_state(
        SERVICE_CHECKPOINT_NAME, SERVICE_CHECKPOINT_KIND
    )
    estate = infrastructure_from_dict(payload["infrastructure"])
    state = ServiceState(
        estate,
        window_length=float(payload.get("window_length", 1.0)),
        seed=int(payload["seed"]),
    )
    state.restore_payload(payload)
    return estate, state


def check_service_conformance(
    checkpoint_dir: str | None = None,
    *,
    seed: int = 0,
    servers: int = 8,
    vms: int = 24,
    windows: int = 8,
) -> Report:
    """Prove live-vs-batch equivalence of the service's admission log.

    Without ``checkpoint_dir`` a synthetic session is generated
    in-process (seeded trace, one reoptimization pass); with it, the
    service checkpoint written by ``python -m repro serve`` is loaded.
    Either way the session's admission log is replayed through a fresh
    batch scheduler and every decision and final byte is compared.
    """
    from repro.service.state import replay_admission_log

    if checkpoint_dir is None:
        source = "synthetic"
        estate, live = _synthetic_session(seed, servers, vms, windows)
    else:
        source = str(checkpoint_dir)
        estate, live = _live_from_checkpoint(checkpoint_dir)

    report = Report(
        "service",
        source,
        stats={
            "records": len(live.log),
            "windows": sum(1 for r in live.log if r.get("type") == "window"),
            "reoptimizations": sum(
                1 for r in live.log if r.get("type") == "reoptimize"
            ),
            "residents": 0,
            "invariants_checked": 0,
        },
    )

    replayed = replay_admission_log(
        estate,
        live.log,
        seed=live.seed,
        window_length=live.scheduler.window_length,
    )

    # Per-record decision equivalence: the replay's own log must agree
    # with the live log on every accept/reject/displace verdict.
    for index, (lrec, rrec) in enumerate(zip(live.log, replayed.log)):
        for field_name in ("accepted", "rejected", "displaced"):
            if field_name not in lrec:
                continue
            report.note(
                list(lrec[field_name]) == list(rrec.get(field_name, [])),
                f"log[{index}]",
                field_name,
                f"live {lrec[field_name]!r} != replay {rrec.get(field_name)!r}",
            )

    # Final-state byte identity.
    live_residents = live.residents()
    replay_residents = replayed.residents()
    report.stats["residents"] = len(live_residents)
    same_keys = sorted(live_residents) == sorted(replay_residents)
    report.note(
        same_keys,
        "state",
        "residents",
        f"live keys {sorted(live_residents)} != replay {sorted(replay_residents)}",
    )
    if same_keys:
        for key, genes in live_residents.items():
            report.note(
                genes == replay_residents[key],
                "state",
                f"residents[{key}]",
                f"live genes {genes} != replay {replay_residents[key]}",
            )
    report.compare(
        "state",
        {
            "committed_usage": (
                live.scheduler.state.committed_usage,
                replayed.scheduler.state.committed_usage,
            ),
        },
    )
    live_clock = (live.scheduler.clock, live.scheduler.window_index)
    replay_clock = (replayed.scheduler.clock, replayed.scheduler.window_index)
    report.note(
        live_clock == replay_clock,
        "state",
        "clock",
        f"live (t, w)={live_clock} != replay {replay_clock}",
    )

    # The replayed placements must satisfy the invariant catalog.  Every
    # resident is committed work, so each request counts as accepted:
    # that is what lets the capacity and group checks compare.
    if replay_residents:
        keys = sorted(replay_residents)
        requests = [replayed.scheduler.request_for(key) for key in keys]
        assignment = np.concatenate(
            [np.asarray(replay_residents[key], dtype=np.int64) for key in keys]
        )
        inv = run_invariants(
            CheckContext(
                infrastructure=estate,
                requests=requests,
                assignment=assignment,
                accepted=np.ones(len(requests), dtype=bool),
            ),
            names=_PLACEMENT_INVARIANTS,
        )
        report.stats["invariants_checked"] = len(inv.checked)
        for violation in inv.violations:
            report.flag("replay", f"invariant[{violation.invariant}]", str(violation))
    return report
