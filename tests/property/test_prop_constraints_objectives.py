"""Property tests: batch evaluation must equal an independent plain
per-genome pricing (:mod:`tests.naive_pricing`) in every scoring mode,
and model invariants must hold on arbitrary instances."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import ConstraintSet
from repro.model import AttributeSchema, Infrastructure, PlacementGroup, Request
from repro.model.placement import UNPLACED, Placement
from repro.objectives import PopulationEvaluator, qos_from_load
from repro.types import PlacementRule
from tests.naive_pricing import price, total_violations


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
    # Guarantee every dc id occurs.
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


@st.composite
def settings_drawn(draw):
    """Every evaluation setting the fuzz campaign draws for its oracle:
    committed usage, a previous assignment and energy weight 0.5."""
    return {
        "with_base_usage": draw(st.booleans()),
        "with_previous": draw(st.booleans()),
        "energy_weight": draw(st.sampled_from([0.0, 0.5])),
    }


@given(instances(), settings_drawn(), st.integers(0, 2**31 - 1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_batch_evaluation_equals_single(instance, drawn, seed, with_unplaced):
    infra, request = instance
    rng = np.random.default_rng(seed)
    population = rng.integers(0, infra.m, size=(8, request.n))
    if with_unplaced:
        mask = rng.random(population.shape) < 0.15
        population[mask] = UNPLACED
    capacity = infra.effective_capacity
    options = {
        "base_usage": (
            rng.uniform(0.0, 0.4, size=capacity.shape) * capacity
            if drawn["with_base_usage"]
            else None
        ),
        "previous_assignment": (
            rng.integers(-1, infra.m, size=request.n) if drawn["with_previous"] else None
        ),
        "include_assignment_constraint": True,
        "energy_weight": drawn["energy_weight"],
    }
    evaluator = PopulationEvaluator(infra, request, **options)
    result = evaluator.evaluate_population(population)
    for i in range(population.shape[0]):
        violations, objectives = price(infra, request, population[i], **options)
        assert np.allclose(objectives, result.objectives[i], rtol=1e-9, atol=1e-9)
        assert total_violations(violations) == result.violations[i]


@given(instances(), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_constraint_batch_equals_single(instance, seed):
    infra, request = instance
    rng = np.random.default_rng(seed)
    population = rng.integers(0, infra.m, size=(10, request.n))
    constraint_set = ConstraintSet(infra, request)
    batch = constraint_set.batch_violations(population)
    single = [
        total_violations(price(infra, request, row)[0]) for row in population
    ]
    assert batch.tolist() == single


@given(instances(), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_placement_dense_roundtrip(instance, seed):
    infra, request = instance
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, infra.m, size=request.n)
    assignment[rng.random(request.n) < 0.2] = UNPLACED
    placement = Placement(assignment=assignment, infrastructure=infra)
    back = Placement.from_dense(placement.to_dense(), infra)
    assert np.array_equal(back.assignment, assignment)


@given(instances(), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_usage_conservation(instance, seed):
    """Total placed demand equals column sums of the usage matrix."""
    infra, request = instance
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, infra.m, size=request.n)
    placement = Placement(assignment=assignment, infrastructure=infra)
    usage = placement.server_usage(request.demand)
    assert np.allclose(usage.sum(axis=0), request.demand.sum(axis=0))


@given(
    st.floats(0.0, 0.99),
    st.floats(0.0, 0.99),
    st.lists(st.floats(0.0, 5.0), min_size=2, max_size=20),
)
@settings(max_examples=60, deadline=None)
def test_qos_monotone_in_load(max_load, max_qos, loads):
    """Eq. 24 is non-increasing in load and never exceeds QM."""
    loads = np.sort(np.asarray(loads))
    qos = qos_from_load(loads, max_load, max_qos)
    assert np.all(np.diff(qos) <= 1e-12)
    assert np.all(qos <= max_qos + 1e-12)
    assert np.all(qos >= 0)


@given(instances(), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_objectives_nonnegative(instance, seed):
    infra, request = instance
    rng = np.random.default_rng(seed)
    population = rng.integers(0, infra.m, size=(6, request.n))
    evaluator = PopulationEvaluator(infra, request)
    result = evaluator.evaluate_population(population)
    assert np.all(result.objectives >= -1e-12)
    assert np.all(result.violations >= 0)
