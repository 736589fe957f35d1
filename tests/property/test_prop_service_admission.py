"""Property tests: live admission preserves the PR 3 invariant catalog.

Whatever seeded workload streams through the service's admission path,
(a) every accepted placement satisfies the capacity and group
invariants, (b) a rejected request mutates nothing — ledger bytes and
epoch included — and (c) the admission log replay always converges to
the live residents."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.request import Request
from repro.service import ServiceState, replay_admission_log
from repro.verify import CheckContext, run_invariants
from repro.workloads import ScenarioGenerator, ScenarioSpec

_PLACEMENT_INVARIANTS = (
    "assignment_well_formed",
    "capacity_respected",
    "group_closure",
)


@st.composite
def service_sessions(draw):
    spec = ScenarioSpec(
        servers=draw(st.integers(6, 16)),
        datacenters=draw(st.integers(1, 2)),
        vms=draw(st.integers(12, 32)),
        max_request_size=draw(st.integers(2, 4)),
        tightness=draw(st.floats(0.4, 0.9)),
    )
    seed = draw(st.integers(0, 2**31 - 1))
    batches = draw(st.integers(1, 5))
    return spec, seed, batches


def _stream(spec, seed, batches):
    """Drive a seeded request stream through admission micro-batches."""
    scenario = ScenarioGenerator(spec, seed=seed).generate()
    state = ServiceState(scenario.infrastructure, seed=seed)
    requests = list(scenario.requests)
    per_batch = max(1, len(requests) // batches)
    for index in range(batches):
        chunk = requests[index * per_batch : (index + 1) * per_batch]
        state.admit(
            arrivals=[(f"p{index}-{j}", r) for j, r in enumerate(chunk)]
        )
    return scenario, state


@given(service_sessions())
@settings(max_examples=20, deadline=None)
def test_accepted_placements_satisfy_invariants(setup):
    spec, seed, batches = setup
    scenario, state = _stream(spec, seed, batches)
    residents = state.residents()
    if not residents:
        return
    keys = sorted(residents)
    requests = [state.scheduler.request_for(k) for k in keys]
    assignment = np.concatenate(
        [np.asarray(residents[k], dtype=np.int64) for k in keys]
    )
    report = run_invariants(
        CheckContext(
            infrastructure=scenario.infrastructure,
            requests=requests,
            assignment=assignment,
            accepted=np.ones(len(requests), dtype=bool),
        ),
        names=_PLACEMENT_INVARIANTS,
    )
    assert report.ok, report.format()
    assert report.checked == _PLACEMENT_INVARIANTS
    state.scheduler.state.verify_consistency()


@given(service_sessions())
@settings(max_examples=20, deadline=None)
def test_rejects_never_mutate_state(setup):
    spec, seed, batches = setup
    scenario, state = _stream(spec, seed, batches)
    usage_before = state.scheduler.state.committed_usage.copy()
    residents_before = state.residents()

    # A request no estate can host: demand far beyond total capacity.
    impossible = Request(
        demand=np.full((2, scenario.infrastructure.h), 1e9),
        qos_guarantee=np.full(2, 0.9),
        downtime_cost=np.ones(2),
        migration_cost=np.ones(2),
    )
    report = state.admit(arrivals=[("impossible", impossible)])
    assert "impossible" in report.rejected
    assert not state.is_hosted("impossible")
    usage_after = state.scheduler.state.committed_usage
    assert usage_after.tobytes() == usage_before.tobytes()
    assert state.residents() == residents_before
    state.scheduler.state.verify_consistency()


@given(service_sessions())
@settings(max_examples=10, deadline=None)
def test_replay_converges_to_live_residents(setup):
    spec, seed, batches = setup
    scenario, state = _stream(spec, seed, batches)
    replayed = replay_admission_log(
        scenario.infrastructure, state.log, seed=seed
    )
    assert replayed.residents() == state.residents()
    live = state.scheduler.state.committed_usage
    assert replayed.scheduler.state.committed_usage.tobytes() == live.tobytes()
