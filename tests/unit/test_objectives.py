"""Unit tests for the objective system (Eq. 15, 22-26)."""

import itertools

import numpy as np
import pytest

from repro.engine import CompiledProblem, IncrementalEvaluator
from repro.engine.kernels import active_kernel
from repro.errors import DimensionError, ValidationError
from repro.model.placement import UNPLACED
from repro.objectives import (
    DowntimeCost,
    MigrationCost,
    ObjectiveVector,
    PopulationEvaluator,
    UsageOperatingCost,
    aggregate_scalar,
    loads_from_usage,
    qos_from_load,
)
from tests.unit.test_kernels import (
    same_bytes,
    flat_key_batch_usage,
    paper_scale_case,
    parity_cases,
    subset_exp_server_min_qos,
)


def downtime_of(cost, genome):
    """Row 0 of ``cost.batch`` on a batch of one."""
    population = np.asarray(genome, dtype=np.int64)[None, :]
    usage = active_kernel().batch_usage(
        population, cost.request.demand, cost.infrastructure.m
    )
    return cost.batch(population, usage)[0]


def migration_of(cost, genome):
    """Row 0 of ``cost.batch`` on a batch of one."""
    return cost.batch(np.asarray(genome)[None, :])[0]


class TestQosModel:
    def test_flat_below_knee(self):
        qos = qos_from_load(np.array([0.0, 0.5, 0.8]), 0.8, 0.99)
        assert np.allclose(qos, 0.99)

    def test_exponential_decay_above_knee(self):
        # Eq. 24: Q = QM * exp((LM - L) / (1 - LM)) for L > LM.
        lm, qm, load = 0.8, 0.99, 0.9
        expect = qm * np.exp((lm - load) / (1 - lm))
        assert np.isclose(qos_from_load(np.array([load]), lm, qm)[0], expect)

    def test_monotone_decreasing(self):
        loads = np.linspace(0.0, 3.0, 50)
        qos = qos_from_load(loads, 0.7, 0.95)
        assert np.all(np.diff(qos) <= 1e-12)

    def test_infinite_load_gives_zero_qos(self):
        assert qos_from_load(np.array([np.inf]), 0.8, 0.99)[0] == 0.0

    def test_broadcasting_over_population(self):
        loads = np.random.default_rng(0).random((4, 3, 2))
        lm = np.full((3, 2), 0.8)
        qm = np.full((3, 2), 0.9)
        assert qos_from_load(loads, lm, qm).shape == (4, 3, 2)

    def test_max_load_validated(self):
        with pytest.raises(ValueError):
            qos_from_load(np.array([0.5]), np.array([1.0]), np.array([0.9]))

    def test_loads_eq25(self):
        usage = np.array([[5.0, 0.0]])
        capacity = np.array([[10.0, 0.0]])
        loads = loads_from_usage(usage, capacity)
        assert loads[0, 0] == 0.5
        assert loads[0, 1] == 0.0  # zero capacity, zero usage
        loads2 = loads_from_usage(np.array([[0.0, 1.0]]), capacity)
        assert np.isinf(loads2[0, 1])  # zero capacity, positive usage


class TestUsageCost:
    def test_per_resource_accounting(self, tiny_infra):
        cost = UsageOperatingCost(tiny_infra)
        # rates: server0 = 1 + 0.5 = 1.5; server1 = 2 + 0.5 = 2.5.
        assert cost.value(np.array([0, 0])) == pytest.approx(3.0)
        assert cost.value(np.array([0, 1])) == pytest.approx(4.0)

    def test_unplaced_pays_nothing(self, tiny_infra):
        cost = UsageOperatingCost(tiny_infra)
        assert cost.value(np.array([0, UNPLACED])) == pytest.approx(1.5)

    def test_per_server_operating_mode(self, tiny_infra):
        cost = UsageOperatingCost(tiny_infra, per_server_operating=True)
        # Both VMs on server 0: E_0 charged once (1.0) + 2 * U_0 (0.5).
        assert cost.value(np.array([0, 0])) == pytest.approx(2.0)
        # Split: E_0 + E_1 + 2 * 0.5 = 4.0.
        assert cost.value(np.array([0, 1])) == pytest.approx(4.0)

    def test_batch_matches_single_both_modes(self, small_infra, small_request):
        rng = np.random.default_rng(5)
        population = rng.integers(0, 8, size=(20, 6))
        population[4, 1] = UNPLACED
        compiled = CompiledProblem(small_infra, small_request)
        for mode in (False, True):
            cost = UsageOperatingCost(small_infra, per_server_operating=mode)
            batch = cost.batch(population)
            # The incremental state's own scalar pricing of each row.
            evaluator = compiled.evaluator(per_server_operating=mode)
            single = [
                IncrementalEvaluator(compiled, evaluator, row).component_totals()[
                    "usage_cost"
                ]
                for row in population
            ]
            assert np.allclose(batch, single), f"mode={mode}"


class TestDowntime:
    def test_zero_when_guarantee_met(self, tiny_infra, tiny_request):
        downtime = DowntimeCost(tiny_infra, tiny_request)
        # One VM per server: load 0.4 < knee 0.5 -> QoS 0.9 >= 0.8.
        assert downtime_of(downtime, [0, 1]) == pytest.approx(0.0)

    def test_positive_when_overloaded(self, tiny_infra, tiny_request):
        downtime = DowntimeCost(tiny_infra, tiny_request)
        # Both on server 0: load 0.8 > knee 0.5 -> QoS decays below 0.8.
        value = downtime_of(downtime, [0, 0])
        assert value > 0.0

    def test_shortfall_formula(self, tiny_infra, tiny_request):
        downtime = DowntimeCost(tiny_infra, tiny_request)
        load = 0.8
        qos = 0.9 * np.exp((0.5 - load) / 0.5)
        shortfall = max(0.0, (0.8 - qos) / 0.8)
        expect = 2 * 10.0 * shortfall  # two VMs, C^U = 10 each
        assert downtime_of(downtime, [0, 0]) == pytest.approx(expect)

    def test_literal_mode_rewards_qos(self, tiny_infra, tiny_request):
        literal = DowntimeCost(tiny_infra, tiny_request, mode="literal")
        # Literal Eq. 23: cost = C^U * Q / C^Q, positive even when met.
        value = downtime_of(literal, [0, 1])
        assert value == pytest.approx(2 * 10.0 * 0.9 / 0.8)

    def test_unknown_mode_rejected(self, tiny_infra, tiny_request):
        with pytest.raises(ValidationError):
            DowntimeCost(tiny_infra, tiny_request, mode="bogus")

    def test_base_usage_raises_load(self, tiny_infra, tiny_request):
        base = np.full((2, 2), 4.0)  # pre-existing tenants
        with_base = DowntimeCost(tiny_infra, tiny_request, base_usage=base)
        without = DowntimeCost(tiny_infra, tiny_request)
        genome = np.array([0, 1])
        assert downtime_of(with_base, genome) >= downtime_of(without, genome)


class TestMigration:
    def test_inactive_for_first_placement(self, tiny_request):
        migration = MigrationCost(tiny_request)
        assert not migration.is_active
        assert migration_of(migration, [0, 1]) == 0.0

    def test_charges_moved_resources(self, tiny_request):
        migration = MigrationCost(tiny_request, np.array([0, 0]))
        # M = [1, 3].
        assert migration_of(migration, [0, 1]) == pytest.approx(3.0)
        assert migration_of(migration, [1, 0]) == pytest.approx(1.0)
        assert migration_of(migration, [1, 1]) == pytest.approx(4.0)
        assert migration_of(migration, [0, 0]) == 0.0

    def test_boot_from_unplaced_is_free(self, tiny_request):
        migration = MigrationCost(tiny_request, np.array([UNPLACED, 0]))
        assert migration_of(migration, [1, 0]) == 0.0

    def test_batch_matches_single(self, tiny_request):
        migration = MigrationCost(tiny_request, np.array([0, 1]))
        population = np.array([[0, 1], [1, 0], [0, 0], [1, 1]])
        batch = migration.batch(population)
        # By hand, M = [1, 3]: nothing moved, both, VM 1, VM 0.
        assert np.allclose(batch, [0.0, 4.0, 3.0, 1.0])


class TestAggregate:
    def test_vector_roundtrip(self):
        vector = ObjectiveVector(1.0, 2.0, 3.0)
        assert ObjectiveVector.from_array(vector.as_array()) == vector

    def test_equal_weights_default(self):
        assert ObjectiveVector(1.0, 2.0, 3.0).aggregate() == pytest.approx(6.0)

    def test_custom_weights(self):
        z = aggregate_scalar(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 2.0]))
        assert z == pytest.approx(7.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_scalar(np.ones(3), np.array([1.0, -1.0, 1.0]))

    def test_wrong_width_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_scalar(np.ones((4, 2)))


class TestPopulationEvaluator:
    def test_batch_matches_single(self, small_infra, small_request):
        evaluator = PopulationEvaluator(small_infra, small_request)
        rng = np.random.default_rng(6)
        population = rng.integers(0, 8, size=(15, 6))
        result = evaluator.evaluate_population(population)
        compiled = CompiledProblem(small_infra, small_request)
        for i in range(15):
            # The incremental state's own scalar pricing of each row.
            state = IncrementalEvaluator(compiled, evaluator, population[i])
            assert np.allclose(state.objectives, result.objectives[i])
            assert state.violations == result.violations[i]

    def test_counts_evaluations(self, small_infra, small_request):
        evaluator = PopulationEvaluator(small_infra, small_request)
        evaluator.evaluate_population(np.zeros((4, 6), dtype=np.int64))
        evaluator.evaluate(np.zeros(6, dtype=np.int64))
        assert evaluator.evaluation_count == 5
        evaluator.reset_counter()
        assert evaluator.evaluation_count == 0

    def test_migration_column_active_with_previous(
        self, small_infra, small_request
    ):
        previous = np.array([0, 0, 2, 3, 4, 5])
        evaluator = PopulationEvaluator(
            small_infra, small_request, previous_assignment=previous
        )
        moved = previous.copy()
        moved[2] = 6
        vector = evaluator.evaluate(moved)
        assert vector.migration_cost == pytest.approx(
            small_request.migration_cost[2]
        )

    def test_result_feasible_mask(self, small_infra, small_request):
        evaluator = PopulationEvaluator(small_infra, small_request)
        good = np.array([[0, 0, 2, 3, 4, 5]])
        result = evaluator.evaluate_population(good)
        assert result.feasible.tolist() == [True]


# ----------------------------------------------------------------------
# The objective bodies before the flat gather and the UNPLACED skip,
# verbatim: the oracles the rewritten batch paths must match byte for
# byte.  The downtime oracle runs on the numpy QoS primitive and
# penalty mapping of the same version.
# ----------------------------------------------------------------------
def allocating_penalties(self, qos_per_resource):
    """``DowntimeCost._penalties`` returning a new array."""
    cq = self.request.qos_guarantee
    cu = self.request.downtime_cost
    if self.mode == "literal":
        return cu * (qos_per_resource / cq)
    shortfall = np.maximum(0.0, (cq - qos_per_resource) / cq)
    return cu * shortfall


def _oracle_server_min_qos(self, usage):
    infra = self.infrastructure
    return subset_exp_server_min_qos(
        usage, self.base_usage, infra.capacity, infra.max_load, infra.max_qos
    )


def take_along_axis_downtime_batch(self, population, usage):
    """``DowntimeCost.batch`` gathering through ``np.take_along_axis``."""
    population = np.asarray(population, dtype=np.int64)
    pop, n = population.shape
    if usage.shape[0] != pop:
        raise DimensionError(
            f"usage tensor covers {usage.shape[0]} individuals, "
            f"population has {pop}"
        )
    server_qos = _oracle_server_min_qos(self, usage)  # (pop, m)
    mask = population != UNPLACED
    safe = np.where(mask, population, 0)
    delivered = np.take_along_axis(server_qos, safe, axis=1)
    penalties = allocating_penalties(self, delivered)
    penalties = np.where(mask, penalties, 0.0)
    return penalties.sum(axis=1)


def masked_usage_cost_batch(self, population):
    """``UsageOperatingCost.batch`` masking UNPLACED genes twice."""
    population = np.asarray(population, dtype=np.int64)
    if population.ndim != 2:
        raise DimensionError(
            f"population must be 2-D, got shape {population.shape}"
        )
    m = self.infrastructure.m
    mask = population != UNPLACED
    if not self.per_server_operating:
        rates = np.where(mask, self._per_resource_rate[np.where(mask, population, 0)], 0.0)
        return rates.sum(axis=1)
    usage_rates = np.where(
        mask, self.infrastructure.usage_cost[np.where(mask, population, 0)], 0.0
    )
    usage = usage_rates.sum(axis=1)
    pop = population.shape[0]
    servers = np.where(mask, population, m)
    flat = (np.arange(pop)[:, None] * (m + 1) + servers).ravel()
    counts = np.bincount(flat, minlength=pop * (m + 1)).reshape(pop, m + 1)[:, :m]
    operating = (counts > 0) @ self.infrastructure.operating_cost
    return usage + operating


class TestBatchObjectiveParity:
    """``DowntimeCost.batch`` and ``UsageOperatingCost.batch`` keep every
    byte of their previous bodies over the kernel parity fuzz (pop 0, 1
    and odd; fully placed, 2% and 100% UNPLACED; int32 genomes; m = 1;
    zero capacity; committed usage; no overload; one paper-scale call)."""

    @pytest.fixture(scope="class")
    def cases(self):
        return [*parity_cases(), paper_scale_case()]

    def test_downtime_batch(self, cases):
        for case, mode in itertools.product(cases, ("shortfall", "literal")):
            cost = DowntimeCost(
                case.infrastructure, case.request, base_usage=case.base_usage, mode=mode
            )
            usage = flat_key_batch_usage(
                case.population, case.request.demand, case.infrastructure.m
            )
            want = take_along_axis_downtime_batch(cost, case.population, usage)
            got = cost.batch(case.population, usage)
            assert same_bytes(got, want), f"{case.name}, {mode}"

    def test_usage_cost_batch(self, cases):
        for case, per_server in itertools.product(cases, (False, True)):
            cost = UsageOperatingCost(case.infrastructure, per_server_operating=per_server)
            want = masked_usage_cost_batch(cost, case.population)
            got = cost.batch(case.population)
            assert same_bytes(got, want), f"{case.name}, per_server={per_server}"

    def test_batch_leaves_the_genomes_alone(self, cases):
        case = next(c for c in cases if (c.population == UNPLACED).any())
        before = case.population.copy()
        cost = DowntimeCost(case.infrastructure, case.request)
        usage = flat_key_batch_usage(case.population, case.request.demand, case.infrastructure.m)
        cost.batch(case.population, usage)
        UsageOperatingCost(case.infrastructure).batch(case.population)
        assert np.array_equal(case.population, before)
