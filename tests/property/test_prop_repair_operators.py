"""Property tests: the tabu repair and genetic operators on arbitrary
instances."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import ConstraintSet
from repro.cp import CPSolver, SearchLimits
from repro.ea.operators import polynomial_mutation, sbx_crossover, uniform_crossover
from repro.engine import CompiledProblem
from repro.tabu import TabuRepair

from tests.property.test_prop_constraints_objectives import instances


@given(instances(), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_repair_never_increases_violations(instance, seed):
    infra, request = instance
    rng = np.random.default_rng(seed)
    constraint_set = ConstraintSet(infra, request, include_assignment=False)
    repair = TabuRepair(CompiledProblem(infra, request), seed=seed)
    population = rng.integers(0, infra.m, size=(6, request.n))
    before = constraint_set.batch_violations(population)
    fixed = repair(population)
    after = constraint_set.batch_violations(fixed)
    assert np.all(after <= before)
    assert fixed.min() >= 0 and fixed.max() < infra.m
    assert fixed.shape == population.shape


@given(instances(), st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_repair_reaches_feasibility_when_cp_proves_it(instance, seed):
    """If CP finds the instance feasible from scratch, repair from the
    CP solution (already feasible) must keep it feasible."""
    infra, request = instance
    solution = CPSolver(
        CompiledProblem(infra, request), limits=SearchLimits(max_nodes=5_000, time_limit=1.0)
    ).find_feasible()
    if not solution.found:
        return  # instance infeasible or too hard for the budget
    constraint_set = ConstraintSet(infra, request, include_assignment=False)
    repair = TabuRepair(CompiledProblem(infra, request), seed=seed)
    fixed = repair.repair_genome(solution.assignment)
    assert constraint_set.violations(fixed) == 0


@given(
    st.integers(1, 40),
    st.integers(2, 60),
    st.integers(1, 20),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=50, deadline=None)
def test_sbx_pm_output_domain(pairs, n, m, seed):
    rng = np.random.default_rng(seed)
    parents = rng.integers(0, m, size=(2 * pairs, n))
    children = sbx_crossover(parents, n_servers=m, seed=seed)
    assert children.shape == parents.shape
    assert children.min() >= 0 and children.max() < m
    mutated = polynomial_mutation(children, n_servers=m, seed=seed)
    assert mutated.min() >= 0 and mutated.max() < m


@given(
    st.integers(1, 30),
    st.integers(1, 40),
    st.integers(1, 50),
    st.integers(0, 2**31 - 1),
    st.floats(0.0, 1.0),
)
@settings(max_examples=50, deadline=None)
def test_uniform_crossover_gene_conservation(pairs, n, m, seed, rate):
    rng = np.random.default_rng(seed)
    parents = rng.integers(0, m, size=(2 * pairs, n))
    children = uniform_crossover(parents, rate=rate, seed=seed)
    for pair in range(pairs):
        p = np.sort(parents[2 * pair : 2 * pair + 2], axis=0)
        c = np.sort(children[2 * pair : 2 * pair + 2], axis=0)
        assert np.array_equal(p, c)


@given(st.integers(2, 30), st.integers(1, 40), st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_sbx_children_within_parent_convex_hull_mostly(n_genes, m, seed):
    """SBX children stay inside [0, m); with identical parents they are
    exactly the parents."""
    parents = np.tile(
        np.random.default_rng(seed).integers(0, m, size=n_genes), (4, 1)
    )
    children = sbx_crossover(parents, n_servers=m, rate=1.0, seed=seed)
    assert np.array_equal(children, parents)


@given(instances(), st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_repair_idempotent_on_feasible_output(instance, seed):
    """Once the repair returns a feasible genome, repairing it again is
    the identity (feasible genomes are never touched)."""
    infra, request = instance
    rng = np.random.default_rng(seed)
    constraint_set = ConstraintSet(infra, request, include_assignment=False)
    repair = TabuRepair(CompiledProblem(infra, request), seed=seed)
    genome = rng.integers(0, infra.m, size=request.n)
    once = repair.repair_genome(genome)
    if constraint_set.violations(once) == 0:
        twice = repair.repair_genome(once.copy())
        assert np.array_equal(once, twice)


@given(instances(), st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_group_block_crossover_preserves_rule_consistency(instance, seed):
    """Children of rule-consistent parents stay rule-consistent under
    the group-aware crossover (on arbitrary instances)."""
    from repro.cp import CPSolver, SearchLimits
    from repro.ea.operators import group_block_crossover

    infra, request = instance
    if not request.groups:
        return
    solution = CPSolver(
        CompiledProblem(infra, request), limits=SearchLimits(max_nodes=3_000, time_limit=0.5)
    ).find_feasible()
    if not solution.found:
        return
    parents = np.vstack([solution.assignment] * 4)
    children = group_block_crossover(parents, request, rate=1.0, seed=seed)
    constraint_set = ConstraintSet(infra, request, include_assignment=False)
    for child in children:
        for constraint in constraint_set.group_constraints:
            assert constraint.violations(child) == 0
