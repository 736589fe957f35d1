"""Unit tests for the tabu layer: tabu list, neighbour search, repair,
standalone search."""

import numpy as np
import pytest

from repro.constraints import ConstraintSet
from repro.engine import CompiledProblem
from repro.errors import ValidationError
from repro.model import Request
from repro.model.placement import UNPLACED
from repro.objectives import PopulationEvaluator
from repro.tabu import NeighborFinder, TabuList, TabuRepair, TabuSearch
from repro.tabu import repair as repair_module
from repro.tabu.repair import WalkState
from repro.workloads.generator import ScenarioGenerator, ScenarioSpec


class TestTabuList:
    def test_membership(self):
        tabu = TabuList(tenure=4)
        tabu.add(1, 5)
        assert (1, 5) in tabu
        assert (1, 6) not in tabu

    def test_capacity_evicts_oldest(self):
        tabu = TabuList(tenure=2)
        tabu.add(0, 0)
        tabu.add(1, 1)
        tabu.add(2, 2)
        assert (0, 0) not in tabu
        assert (1, 1) in tabu and (2, 2) in tabu

    def test_readd_refreshes(self):
        tabu = TabuList(tenure=2)
        tabu.add(0, 0)
        tabu.add(1, 1)
        tabu.add(0, 0)  # refresh
        tabu.add(2, 2)
        assert (0, 0) in tabu and (1, 1) not in tabu

    def test_zero_tenure_disables(self):
        tabu = TabuList(tenure=0)
        tabu.add(0, 0)
        assert (0, 0) not in tabu and len(tabu) == 0

    def test_forbidden_servers(self):
        tabu = TabuList(tenure=8)
        tabu.add(3, 1)
        tabu.add(3, 2)
        tabu.add(4, 9)
        assert sorted(tabu.forbidden_servers(3)) == [1, 2]

    def test_clear(self):
        tabu = TabuList(tenure=4)
        tabu.add(0, 0)
        tabu.clear()
        assert len(tabu) == 0

    def test_negative_tenure_rejected(self):
        with pytest.raises(ValidationError):
            TabuList(tenure=-1)


class TestNeighborFinder:
    def test_affinity_mask_same_server(self, small_infra, small_request):
        finder = NeighborFinder(CompiledProblem(small_infra, small_request))
        # VM 0 and 1 are a SAME_SERVER pair; VM 1 sits on server 3.
        assignment = np.array([0, 3, 2, 4, 5, 6])
        mask = finder.apply_rules(np.ones(small_infra.m, dtype=bool), assignment, 0)
        assert mask[3] and mask.sum() == 1

    def test_affinity_mask_different_servers(self, small_infra, small_request):
        finder = NeighborFinder(CompiledProblem(small_infra, small_request))
        # VMs 2 and 3 must differ; VM 3 on server 4.
        assignment = np.array([0, 0, 2, 4, 5, 6])
        mask = finder.apply_rules(np.ones(small_infra.m, dtype=bool), assignment, 2)
        assert not mask[4] and mask.sum() == small_infra.m - 1

    def test_affinity_mask_no_groups_is_all_true(self, small_infra, small_request):
        finder = NeighborFinder(CompiledProblem(small_infra, small_request))
        assignment = np.array([0, 0, 2, 4, 5, 6])
        mask = np.ones(small_infra.m, dtype=bool)
        assert finder.apply_rules(mask, assignment, 5) is mask and mask.all()

    def test_fits_reads_the_residual(self, small_infra, small_request):
        """A server fits a VM when its residual row holds the demand on
        every attribute; the tolerance admits a row short by under 1e-9."""
        finder = NeighborFinder(CompiledProblem(small_infra, small_request))
        residual = np.tile(small_request.demand[2], (small_infra.m, 1))
        residual[1, 0] -= 1e-10
        residual[5, 2] -= 1e-6
        expected = np.ones(small_infra.m, dtype=bool)
        expected[5] = False
        assert np.array_equal(finder.fits(residual, 2), expected)

    def test_find_first_order_returns_lowest_id(self, small_infra, small_request):
        finder = NeighborFinder(CompiledProblem(small_infra, small_request))
        assignment = np.array([0, 0, 2, 3, 4, 5])
        usage = ConstraintSet(
            small_infra, small_request, include_assignment=False
        ).capacity.batch_usage(assignment[None, :])[0]
        target = finder.find(finder.limit - usage, assignment, 5, order="first")
        assert target == 0  # server 0 has room and the lowest id

    def test_find_respects_tabu(self, small_infra, small_request):
        finder = NeighborFinder(CompiledProblem(small_infra, small_request))
        assignment = np.array([0, 0, 2, 3, 4, 5])
        usage = ConstraintSet(
            small_infra, small_request, include_assignment=False
        ).capacity.batch_usage(assignment[None, :])[0]
        tabu = TabuList(tenure=8)
        tabu.add(5, 0)
        target = finder.find(finder.limit - usage, assignment, 5, tabu=tabu, order="first")
        assert target not in (0, 5)  # 0 is tabu, 5 is current

    def test_find_orders(self, small_infra, small_request):
        finder = NeighborFinder(CompiledProblem(small_infra, small_request))
        assignment = np.array([0, 0, 2, 3, 4, 5])
        usage = ConstraintSet(
            small_infra, small_request, include_assignment=False
        ).capacity.batch_usage(assignment[None, :])[0]
        rng = np.random.default_rng(0)
        for order in ("first", "best_fit", "random"):
            target = finder.find(finder.limit - usage, assignment, 5, order=order, rng=rng)
            assert target is not None and target != 5
        with pytest.raises(ValidationError):
            finder.find(finder.limit - usage, assignment, 5, order="bogus")

    def test_find_returns_none_when_nothing_fits(self, small_infra):
        # One VM as big as the largest server: nowhere else to go once
        # its demand is doubled everywhere via base usage.
        request = Request(
            demand=small_infra.effective_capacity[[2]],
            qos_guarantee=np.array([0.9]),
            downtime_cost=np.array([1.0]),
            migration_cost=np.array([1.0]),
        )
        base = small_infra.effective_capacity * 0.5
        finder = NeighborFinder(CompiledProblem(small_infra, request), base_usage=base)
        assignment = np.array([2])
        usage = np.zeros_like(base)
        assert finder.find(finder.limit - usage, assignment, 0) is None


class TestTabuRepair:
    def test_feasible_genome_untouched(self, small_infra, small_request):
        repair = TabuRepair(CompiledProblem(small_infra, small_request), seed=0)
        genome = np.array([0, 0, 2, 3, 4, 5])
        assert np.array_equal(repair.repair_genome(genome), genome)
        assert repair.repaired_individuals == 0

    def test_repairs_affinity_violation(self, small_infra, small_request):
        repair = TabuRepair(CompiledProblem(small_infra, small_request), seed=0)
        broken = np.array([0, 1, 2, 3, 4, 5])  # same-server pair split
        fixed = repair.repair_genome(broken)
        constraint_set = ConstraintSet(
            small_infra, small_request, include_assignment=False
        )
        assert constraint_set.violations(fixed) == 0

    def test_repairs_anti_affinity_violation(self, small_infra, small_request):
        repair = TabuRepair(CompiledProblem(small_infra, small_request), seed=0)
        broken = np.array([0, 0, 2, 2, 4, 5])  # different-servers collided
        fixed = repair.repair_genome(broken)
        constraint_set = ConstraintSet(
            small_infra, small_request, include_assignment=False
        )
        assert constraint_set.violations(fixed) == 0

    def test_never_increases_violations(self, small_infra, small_request):
        constraint_set = ConstraintSet(
            small_infra, small_request, include_assignment=False
        )
        rng = np.random.default_rng(1)
        repair = TabuRepair(CompiledProblem(small_infra, small_request), seed=2)
        for _ in range(20):
            genome = rng.integers(0, small_infra.m, size=small_request.n)
            before = constraint_set.violations(genome)
            after = constraint_set.violations(repair.repair_genome(genome))
            assert after <= before

    def test_population_call_only_touches_infeasible(
        self, small_infra, small_request
    ):
        repair = TabuRepair(CompiledProblem(small_infra, small_request), seed=3)
        feasible = np.array([0, 0, 2, 3, 4, 5])
        broken = np.array([0, 1, 2, 3, 4, 5])
        population = np.vstack([feasible, broken])
        fixed = repair(population)
        assert np.array_equal(fixed[0], feasible)
        assert not np.array_equal(fixed[1], broken)

    def test_genes_stay_in_range(self, small_infra, small_request):
        repair = TabuRepair(CompiledProblem(small_infra, small_request), seed=4)
        rng = np.random.default_rng(5)
        population = rng.integers(0, small_infra.m, size=(10, small_request.n))
        fixed = repair(population)
        assert fixed.min() >= 0 and fixed.max() < small_infra.m

    def test_max_rounds_validated(self, small_infra, small_request):
        with pytest.raises(ValidationError):
            TabuRepair(CompiledProblem(small_infra, small_request), max_rounds=0)


class _CheckedWalkState(WalkState):
    """Asserts, when its walk starts and after every round, that the
    state the batch set-up built and the walk updates move by move still
    describes the assignment it has reached: its usage equals
    the assignment's fresh usage within 1e-6, its residual is ``limit -
    usage`` bitwise, and its per-server over-counts and per-group counts
    equal a recount over its own usage and assignment by ``constraints``,
    the constraint set of the instance under repair.  ``built`` counts
    the states :meth:`WalkState.batch` made, ``rounds`` the checks."""

    rounds = 0
    built = 0
    constraints: ConstraintSet

    def __init__(self, *args) -> None:
        super().__init__(*args)
        type(self).built += 1

    @property
    def violations(self) -> int:
        capacity = self.constraints.capacity
        usage = self.usage
        fresh = capacity.batch_usage(self.assignment[None, :])[0]
        np.testing.assert_allclose(usage, fresh, rtol=0, atol=1e-6)
        assert self.genes == self.assignment.tolist()
        assert self.residual.tobytes() == (capacity.limit - usage).tobytes()
        over = np.count_nonzero(usage > capacity.threshold, axis=1)
        assert self.over == over.tolist() and self.cap_total == int(over.sum())
        groups = [c.violations(self.assignment) for c in self.constraints.group_constraints]
        assert self.group_viol == groups and self.group_total == sum(groups)
        type(self).rounds += 1
        return super().violations


@pytest.fixture
def checked_walk(monkeypatch):
    """Run every repair walk of the test on :class:`_CheckedWalkState`."""
    monkeypatch.setattr(repair_module, "WalkState", _CheckedWalkState)
    monkeypatch.setattr(_CheckedWalkState, "rounds", 0)
    monkeypatch.setattr(_CheckedWalkState, "built", 0)
    return _CheckedWalkState


def _genomes_with_unplaced_members(count):
    """(infrastructure, request, genome) on generated 6x14 instances
    (tightness 0.9) with one member of every placement group unplaced."""
    spec = ScenarioSpec(servers=6, datacenters=1, vms=14, tightness=0.9)
    for seed in range(count):
        scenario = ScenarioGenerator(spec, seed=seed).generate()
        request, _ = Request.concatenate(list(scenario.requests))
        if not request.groups:
            continue
        rng = np.random.default_rng(seed)
        genome = rng.integers(0, scenario.infrastructure.m, size=request.n)
        for group in request.groups:
            genome[rng.choice(list(group.members))] = UNPLACED
        yield scenario.infrastructure, request, genome


class TestRepairWithUnplacedGenes:
    """An unplaced gene hosts nothing: the walk must never pick it as a
    faulty VM, debit its demand from server m-1, or place it."""

    def test_unplaced_genes_are_never_moved(self, checked_walk):
        cases = 0
        for infra, request, genome in _genomes_with_unplaced_members(200):
            constraint_set = ConstraintSet(infra, request, include_assignment=False)
            checked_walk.constraints = constraint_set
            repair = TabuRepair(CompiledProblem(infra, request), seed=0)
            repaired = repair.repair_genome(genome)
            unplaced = genome == UNPLACED
            assert np.all(repaired[unplaced] == UNPLACED)
            assert constraint_set.violations(repaired) <= constraint_set.violations(
                genome
            )
            cases += 1
        assert cases >= 100  # most generated requests carry groups
        assert checked_walk.rounds > cases  # the state check ran every round

    def test_batch_built_states_stay_consistent(self, checked_walk):
        """Population repair starts the walks of several infeasible rows,
        on committed base usage, from one set-up pass: every one of those
        states must check out when it starts and after every round."""
        walks = batches = 0
        for infra, request, genome in _genomes_with_unplaced_members(60):
            rng = np.random.default_rng(genome.size)
            base = infra.effective_capacity * rng.uniform(0.0, 0.3, size=(infra.m, infra.h))
            checked_walk.constraints = ConstraintSet(
                infra, request, base_usage=base, include_assignment=False
            )
            population = np.stack(
                [genome, rng.permutation(genome), rng.integers(0, infra.m, size=genome.size)]
            )
            repair = TabuRepair(CompiledProblem(infra, request), base_usage=base, seed=0)
            repaired = repair(population)
            assert np.all(repaired[population == UNPLACED] == UNPLACED)
            walks += repair.repaired_individuals
            batches += repair.repaired_individuals >= 2
        assert batches >= 30  # most batches walk several rows
        assert checked_walk.built == walks  # every walk ran on a checked state
        assert checked_walk.rounds > walks  # checked at the start and every round


class TestTabuSearch:
    def test_improves_random_start(self, small_infra, small_request):
        evaluator = PopulationEvaluator(small_infra, small_request)
        search = TabuSearch(evaluator, max_iterations=60, seed=0)
        rng = np.random.default_rng(1)
        start = rng.integers(0, small_infra.m, size=small_request.n)
        objectives, violations = evaluator.assess(start)
        start_score = (violations, float(objectives.aggregate()))
        result = search.run(start)
        end_score = (result.violations, float(result.objectives.sum()))
        assert end_score <= start_score

    def test_result_fields(self, small_infra, small_request):
        evaluator = PopulationEvaluator(small_infra, small_request)
        search = TabuSearch(evaluator, max_iterations=10, seed=0)
        result = search.run(np.zeros(small_request.n, dtype=np.int64))
        assert result.assignment.shape == (small_request.n,)
        assert result.objectives.shape == (3,)
        assert result.evaluations > 0 and result.elapsed >= 0

    def test_wrong_start_shape_rejected(self, small_infra, small_request):
        evaluator = PopulationEvaluator(small_infra, small_request)
        search = TabuSearch(evaluator, max_iterations=5)
        with pytest.raises(ValidationError):
            search.run(np.zeros(3, dtype=np.int64))

    def test_every_evaluator_setting_reaches_the_walk(
        self, small_infra, small_request
    ):
        """The walk scores through the search's own evaluator: with every
        setting away from its default, the best score the walk recorded
        is the evaluator's score of the best placement — violations
        exactly, the aggregate to float re-association noise."""
        base = np.zeros((small_infra.m, small_infra.h))
        base[:4] = 0.5 * small_infra.effective_capacity[:4]
        evaluator = PopulationEvaluator(
            small_infra,
            small_request,
            base_usage=base,
            previous_assignment=np.array([0, 0, 2, 3, 4, 5]),
            downtime_mode="literal",
            per_server_operating=True,
            include_assignment_constraint=True,
            qos_strict=True,
            energy_weight=0.5,
        )
        run = TabuSearch(evaluator, max_iterations=40, seed=3).start(
            np.zeros(small_request.n, dtype=np.int64)
        )
        while run.step():
            pass
        result = run.result()

        objectives, violations = evaluator.assess(run.best_solution())
        assert result.violations == violations
        assert np.array_equal(result.objectives, objectives.as_array())
        assert run.best_score[0] == violations
        assert run.best_score[1] == pytest.approx(objectives.aggregate(), rel=1e-9)

    def test_each_iteration_scores_its_candidates_in_one_tile(
        self, small_infra, small_request, monkeypatch
    ):
        """An iteration with candidates makes exactly one
        ``evaluate_population`` call, on one row per candidate move (the
        current genome with that move's gene changed), and counts each
        row as one evaluation; the current score it then adopts is the
        evaluator's score of the new current genome."""
        evaluator = PopulationEvaluator(
            small_infra, small_request, include_assignment_constraint=True
        )
        run = TabuSearch(evaluator, max_iterations=30, seed=5).start(
            np.zeros(small_request.n, dtype=np.int64)
        )
        tiles = []
        score_tile = evaluator.evaluate_population

        def spy(population):
            tiles.append(np.array(population))
            return score_tile(population)

        monkeypatch.setattr(evaluator, "evaluate_population", spy)
        for _ in range(30):
            before = run.current.copy()
            evaluations = run.evaluations
            tiles.clear()
            run.step()
            assert len(tiles) == 1
            tile = tiles[0]
            assert tile.shape[1] == small_request.n
            assert run.evaluations == evaluations + tile.shape[0]
            changed = tile != before[None, :]
            assert np.all(changed.sum(axis=1) == 1)
            if not np.array_equal(run.current, before):
                assert any(np.array_equal(row, run.current) for row in tile)
            objectives, violations = evaluator.assess(run.current)
            assert run.current_score[0] == violations
            assert run.current_score[1] == pytest.approx(objectives.aggregate(), rel=1e-9)


class TestTabuMemoryRegression:
    def test_vacated_server_not_immediately_reentered(self):
        """Regression: the tabu check must test the *candidate* move
        (vm, srv).  An earlier version tested (vm, current[vm]) against
        srv == current[vm] — always false — so the short-term memory
        never fired and a single VM on two equal servers oscillated,
        accepting a move-back every iteration."""
        from repro.model import AttributeSchema, Infrastructure
        from repro.telemetry import TabuIteration, capture_events

        infra = Infrastructure(
            capacity=np.array([[10.0], [10.0]]),
            capacity_factor=np.ones((2, 1)),
            operating_cost=np.array([1.0, 1.0]),
            usage_cost=np.array([0.5, 0.5]),
            max_load=np.full((2, 1), 0.8),
            max_qos=np.full((2, 1), 0.9),
            server_datacenter=np.array([0, 0]),
            schema=AttributeSchema(names=("cpu",)),
        )
        request = Request(
            demand=np.array([[2.0]]),
            qos_guarantee=np.array([0.8]),
            downtime_cost=np.array([1.0]),
            migration_cost=np.array([1.0]),
            schema=infra.schema,
        )
        evaluator = PopulationEvaluator(infra, request)
        search = TabuSearch(
            evaluator,
            max_iterations=4,
            neighborhood_size=16,
            tenure=8,
            seed=0,
        )
        with capture_events() as sink:
            search.run(np.array([0]))
        accepted = [e.accepted for e in sink.of(TabuIteration)]
        # The only admissible move is 0 -> 1.  Once taken, the reverse
        # move (vm 0, server 0) is tabu and no better than the best, so
        # the freshly vacated server must not be re-entered.
        assert accepted[0] is True
        assert not any(accepted[1:])


class TestDeadlineRegression:
    """Regression: an EA ``time_limit`` must also bound the tabu-repair
    inner loop.  Before the fix, the NSGA loop checked its budget only
    between generations, so one pathological repair batch (huge
    ``max_rounds`` on a tight instance) could blow arbitrarily far past
    the configured limit."""

    @staticmethod
    def _tight_instance():
        """One tiny server pool under heavy pressure: most random
        genomes are infeasible, so repair always has work to do."""
        from repro.model import AttributeSchema, Infrastructure

        infra = Infrastructure(
            capacity=np.full((4, 1), 10.0),
            capacity_factor=np.ones((4, 1)),
            operating_cost=np.ones(4),
            usage_cost=np.full(4, 0.5),
            max_load=np.full((4, 1), 0.8),
            max_qos=np.full((4, 1), 0.9),
            server_datacenter=np.zeros(4, dtype=np.int64),
            schema=AttributeSchema(names=("cpu",)),
        )
        request = Request(
            demand=np.full((12, 1), 3.0),
            qos_guarantee=np.full(12, 0.8),
            downtime_cost=np.ones(12),
            migration_cost=np.ones(12),
            schema=infra.schema,
        )
        return infra, request

    def test_passed_deadline_is_pass_through(self):
        """With the budget already spent, repair must return its input
        untouched instead of starting a round it cannot afford."""
        import time

        infra, request = self._tight_instance()
        repair = TabuRepair(CompiledProblem(infra, request), max_rounds=10_000, seed=0)
        repair.set_deadline(time.perf_counter())  # already passed
        broken = np.zeros(12, dtype=np.int64)  # everything on server 0
        assert np.array_equal(repair.repair_genome(broken), broken)
        assert repair.moves_performed == 0

    def test_passed_deadline_skips_population_rows(self):
        import time

        infra, request = self._tight_instance()
        repair = TabuRepair(CompiledProblem(infra, request), max_rounds=10_000, seed=0)
        rng = np.random.default_rng(0)
        population = rng.integers(0, 4, size=(8, 12))
        repair.set_deadline(time.perf_counter())
        assert np.array_equal(repair(population), population)
        # The batch counter still advances: a later resume replays the
        # same RNG addressing whether or not the deadline fired.
        assert repair.runtime_state()["batch_counter"] == 1

    def test_clearing_deadline_reenables_repair(self):
        import time

        infra, request = self._tight_instance()
        repair = TabuRepair(CompiledProblem(infra, request), max_rounds=8, seed=0)
        broken = np.zeros(12, dtype=np.int64)
        repair.set_deadline(time.perf_counter())
        assert np.array_equal(repair.repair_genome(broken), broken)
        repair.set_deadline(None)
        assert not np.array_equal(repair.repair_genome(broken), broken)

    def test_ea_time_limit_bounds_repair_wall_clock(self):
        """End to end: a tiny ``time_limit`` with an absurdly expensive
        repairer must terminate promptly, not after ``max_rounds``."""
        import time

        from repro.ea import NSGA3, NSGAConfig
        from repro.ea.constraint_handling import RepairHandling

        infra, request = self._tight_instance()
        evaluator = PopulationEvaluator(infra, request)
        repair = TabuRepair(
            CompiledProblem(infra, request), max_rounds=100_000, tenure=2, seed=0
        )
        config = NSGAConfig(
            population_size=12,
            max_evaluations=6_000,
            reference_point_divisions=4,
            time_limit=0.15,
            seed=0,
        )
        algorithm = NSGA3(config, handler=RepairHandling(repair))
        start = time.perf_counter()
        result = algorithm.run(evaluator)
        elapsed = time.perf_counter() - start
        # Generous ceiling: the limit is 0.15 s; without deadline
        # propagation the repair loop alone runs for minutes.
        assert elapsed < 5.0
        assert result.evaluations < config.max_evaluations
