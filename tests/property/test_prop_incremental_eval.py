"""Property tests: the incremental evaluator must track a from-scratch
evaluation exactly (violations) / to float noise (objectives) under any
random walk of relocations, on arbitrary instances and configurations.

The per-term parity checks go through :func:`repro.verify.check_parity`,
the one incremental-vs-reference comparison; the long walks are routed
through the :class:`repro.verify.DifferentialOracle`, which runs it
along every walk (and is itself under test here: zero mismatches over
hundreds of moves on three scenario sizes)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import CompiledProblem, IncrementalEvaluator
from repro.model import AttributeSchema, Infrastructure, PlacementGroup, Request
from repro.model.placement import UNPLACED
from repro.types import PlacementRule
from repro.verify import DifferentialOracle, check_parity
from repro.workloads import ScenarioGenerator, ScenarioSpec


@st.composite
def instances(draw):
    """A random small (infrastructure, request) pair with groups."""
    m = draw(st.integers(2, 10))
    g = draw(st.integers(1, min(3, m)))
    n = draw(st.integers(1, 12))
    h = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    capacity = rng.uniform(10, 100, size=(m, h))
    server_dc = np.sort(rng.integers(0, g, size=m))
    server_dc[:g] = np.arange(g)
    server_dc = np.sort(server_dc)
    infra = Infrastructure(
        capacity=capacity,
        capacity_factor=rng.uniform(0.5, 1.0, size=(m, h)),
        operating_cost=rng.uniform(0.1, 5.0, size=m),
        usage_cost=rng.uniform(0.1, 5.0, size=m),
        max_load=rng.uniform(0.3, 0.95, size=(m, h)),
        max_qos=rng.uniform(0.5, 0.99, size=(m, h)),
        server_datacenter=server_dc,
        schema=AttributeSchema(names=tuple(f"a{i}" for i in range(h))),
    )

    groups = []
    if n >= 2 and draw(st.booleans()):
        rule = draw(st.sampled_from(list(PlacementRule)))
        size = draw(st.integers(2, min(4, n)))
        members = tuple(
            int(x) for x in rng.choice(n, size=size, replace=False)
        )
        groups.append(PlacementGroup(rule, members))

    request = Request(
        demand=rng.uniform(0.0, 30.0, size=(n, h)),
        qos_guarantee=rng.uniform(0.5, 1.0, size=n),
        downtime_cost=rng.uniform(0.0, 10.0, size=n),
        migration_cost=rng.uniform(0.0, 10.0, size=n),
        groups=tuple(groups),
        schema=infra.schema,
    )
    return infra, request


@given(
    instances(),
    st.integers(0, 2**31 - 1),
    st.booleans(),
    st.sampled_from(["shortfall", "literal"]),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_random_walk_tracks_reference(
    instance, seed, with_previous, downtime_mode, per_server, qos_strict
):
    """A random walk of apply_move keeps the incremental state equal to
    the from-scratch PopulationEvaluator: violations exactly, all three
    objectives to float re-association noise."""
    infra, request = instance
    rng = np.random.default_rng(seed)
    genome = rng.integers(0, infra.m, size=request.n)
    previous = (
        rng.integers(0, infra.m, size=request.n) if with_previous else None
    )

    compiled = CompiledProblem.compile(infra, request)
    evaluator = compiled.evaluator(
        previous_assignment=previous,
        downtime_mode=downtime_mode,
        per_server_operating=per_server,
        include_assignment_constraint=True,
        qos_strict=qos_strict,
    )
    state = IncrementalEvaluator(compiled, evaluator, genome)

    for step in range(25):
        vm = int(rng.integers(0, request.n))
        # Occasionally unplace, occasionally a no-op move.
        roll = rng.random()
        if roll < 0.1:
            srv = UNPLACED
        else:
            srv = int(rng.integers(0, infra.m))
        preview = state.score_move(vm, srv)
        committed = state.apply_move(vm, srv)
        assert preview.violations == committed.violations
        assert np.allclose(preview.objectives, committed.objectives)

        objectives, violations = evaluator.assess(state.assignment)
        assert state.violations == violations, f"step {step}"
        assert np.allclose(
            state.objectives, objectives.as_array(), rtol=1e-9, atol=1e-9
        ), f"step {step}"

    # Per-term parity at the end of the walk: every term must match.
    report = check_parity(state)
    assert report.ok, report.format()


@given(instances(), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_score_move_equals_full_rescore(instance, seed):
    """score_move's preview must equal evaluating the mutated genome
    from scratch — without mutating the tracked assignment."""
    infra, request = instance
    rng = np.random.default_rng(seed)
    genome = rng.integers(0, infra.m, size=request.n)
    compiled = CompiledProblem.compile(infra, request)
    evaluator = compiled.evaluator(include_assignment_constraint=True)
    state = IncrementalEvaluator(compiled, evaluator, genome.copy())

    for _ in range(10):
        vm = int(rng.integers(0, request.n))
        srv = int(rng.integers(0, infra.m))
        preview = state.score_move(vm, srv)
        mutated = state.assignment.copy()
        mutated[vm] = srv
        objectives, violations = evaluator.assess(mutated)
        assert preview.violations == violations
        assert np.allclose(
            preview.objectives, objectives.as_array(), rtol=1e-9, atol=1e-9
        )
        assert np.array_equal(state.assignment, genome)


# ----------------------------------------------------------------------
# Differential-oracle walks on generated scenarios (three sizes).
# These replace the former ad-hoc parity loops for realistic instances:
# the oracle reaches a random target assignment through 200+ apply_move
# steps, checkpoints per-term parity along the way, and must report
# zero mismatches.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("servers,vms", [(8, 16), (16, 32), (32, 64)])
def test_differential_oracle_long_walks(servers, vms):
    spec = ScenarioSpec(
        servers=servers, datacenters=2, vms=vms, tightness=0.85
    )
    scenario = ScenarioGenerator(spec, seed=servers).generate()
    merged, _owner = Request.concatenate(scenario.requests)
    rng = np.random.default_rng(1000 + servers)

    target = rng.integers(0, servers, size=merged.n)
    target[rng.random(merged.n) < 0.1] = UNPLACED
    previous = rng.integers(0, servers, size=merged.n)

    compiled = CompiledProblem.compile(scenario.infrastructure, merged)
    oracle = DifferentialOracle(
        compiled.evaluator(
            previous_assignment=previous, include_assignment_constraint=True
        ),
        compiled=compiled,
    )
    detours = max(2, -(-200 // merged.n))  # ceil: walk length >= 200 moves
    assert (detours + 1) * merged.n >= 200
    report = oracle.replay(
        target, seed=rng, detours=detours, checkpoint_every=50, cp=False
    )
    assert report.ok, report.format()
    assert report.comparisons >= (detours + 1) * merged.n
