"""Unit tests for NSGA building blocks: sorting, crowding, reference
points, population container, config."""

import numpy as np
import pytest

from repro.ea import (
    NSGAConfig,
    Population,
    crowding_distance,
    das_dennis_points,
    fast_non_dominated_sort,
    ReferencePointNiching,
    constrained_sort_keys,
    greedy_seed,
    random_population,
)
from repro.errors import ValidationError
from repro.utils.pareto import dominates
from repro.utils.rng import as_generator


def _naive_fronts(objectives):
    """Oracle: peel fronts by repeated nondominated filtering."""
    remaining = list(range(len(objectives)))
    ranks = np.full(len(objectives), -1)
    front = 0
    while remaining:
        current = [
            i
            for i in remaining
            if not any(
                dominates(objectives[j], objectives[i])
                for j in remaining
                if j != i
            )
        ]
        for i in current:
            ranks[i] = front
        remaining = [i for i in remaining if i not in current]
        front += 1
    return ranks


class TestFastNonDominatedSort:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            objs = rng.random((20, 3)).round(1)  # rounding forces ties
            assert fast_non_dominated_sort(objs).tolist() == _naive_fronts(
                objs
            ).tolist(), f"trial {trial}"

    def test_single_front_when_incomparable(self):
        objs = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        assert fast_non_dominated_sort(objs).tolist() == [0, 0, 0]

    def test_chain_gives_distinct_fronts(self):
        objs = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        assert fast_non_dominated_sort(objs).tolist() == [0, 1, 2]

    def test_empty(self):
        assert fast_non_dominated_sort(np.empty((0, 2))).size == 0

    def test_constrained_keys_feasible_first(self):
        objs = np.array([[1.0, 1.0], [0.5, 0.5], [9.0, 9.0]])
        violations = np.array([0, 3, 0])
        ranks, tiers = constrained_sort_keys(objs, violations)
        assert tiers.tolist() == [0, 4, 0]
        # Feasible ones Pareto-ranked among themselves.
        assert ranks[0] == 0 and ranks[2] == 1


class TestCrowding:
    def test_boundaries_are_infinite(self):
        objs = np.array([[1.0, 4.0], [2.0, 3.0], [3.0, 2.0], [4.0, 1.0]])
        distance = crowding_distance(objs)
        assert np.isinf(distance[0]) and np.isinf(distance[3])
        assert np.isfinite(distance[1]) and np.isfinite(distance[2])

    def test_uniform_spacing_equal_interior(self):
        objs = np.array([[float(i), float(4 - i)] for i in range(5)])
        distance = crowding_distance(objs)
        assert distance[1] == pytest.approx(distance[2]) == pytest.approx(
            distance[3]
        )

    def test_small_fronts_all_infinite(self):
        assert np.isinf(crowding_distance(np.array([[1.0, 2.0]]))).all()
        assert np.isinf(
            crowding_distance(np.array([[1.0, 2.0], [2.0, 1.0]]))
        ).all()

    def test_degenerate_objective_ignored(self):
        objs = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        distance = crowding_distance(objs)
        assert np.isfinite(distance[1])  # constant column contributes 0

    def test_denser_point_has_smaller_distance(self):
        # Point 1 sits in a tight cluster (0 and 2 are close); point 2
        # has the huge gap toward boundary point 3.
        objs = np.array([[0.0, 10.0], [1.0, 9.0], [1.2, 8.8], [10.0, 0.0]])
        distance = crowding_distance(objs)
        assert distance[1] < distance[2]


class TestDasDennis:
    def test_count_formula(self):
        # C(k + p - 1, p) points for k objectives, p divisions.
        from math import comb

        for k, p in [(2, 4), (3, 12), (3, 4), (4, 3)]:
            points = das_dennis_points(k, p)
            assert points.shape == (comb(k + p - 1, p), k)

    def test_91_points_for_paper_config(self):
        assert das_dennis_points(3, 12).shape[0] == 91

    def test_rows_sum_to_one(self):
        points = das_dennis_points(3, 7)
        assert np.allclose(points.sum(axis=1), 1.0)
        assert np.all(points >= 0)

    def test_rows_unique(self):
        points = das_dennis_points(3, 6)
        assert len({tuple(row.round(9)) for row in points}) == len(points)

    def test_validation(self):
        with pytest.raises(ValidationError):
            das_dennis_points(1, 3)
        with pytest.raises(ValidationError):
            das_dennis_points(3, 0)


class _ReferenceNiching(ReferencePointNiching):
    """``select`` as it ran with numpy calls per pick, verbatim."""

    def reference_select(
        self,
        objectives,
        confirmed,
        partial_front,
        n_select,
        seed=None,
    ):
        confirmed = np.asarray(confirmed, dtype=np.int64)
        partial_front = np.asarray(partial_front, dtype=np.int64)
        if n_select < 0 or n_select > partial_front.size:
            raise ValidationError(
                f"cannot select {n_select} from front of {partial_front.size}"
            )
        if n_select == 0:
            return np.empty(0, dtype=np.int64)
        if n_select == partial_front.size:
            return partial_front.copy()

        rng = as_generator(seed)
        pool = np.concatenate([confirmed, partial_front])
        normalized = self.normalize(objectives[pool])
        nearest, distance = self.associate(normalized)

        n_confirmed = confirmed.size
        niche_count = np.bincount(nearest[:n_confirmed], minlength=self.n_points)
        cand_niche = nearest[n_confirmed:]
        cand_dist = distance[n_confirmed:]
        available = np.ones(partial_front.size, dtype=bool)
        chosen: list[int] = []

        while len(chosen) < n_select:
            # Niches that still have available candidates.
            live = np.unique(cand_niche[available])
            counts = niche_count[live]
            minimal = live[counts == counts.min()]
            niche = int(rng.choice(minimal))
            members = np.flatnonzero(available & (cand_niche == niche))
            if niche_count[niche] == 0:
                # Empty niche: take the member closest to the direction.
                pick = members[np.argmin(cand_dist[members])]
            else:
                pick = int(rng.choice(members))
            chosen.append(int(partial_front[pick]))
            available[pick] = False
            niche_count[niche] += 1

        return np.asarray(chosen, dtype=np.int64)


class TestNiching:
    def test_association_picks_nearest_direction(self):
        niching = ReferencePointNiching(np.array([[1.0, 0.0], [0.0, 1.0]]))
        normalized = np.array([[0.9, 0.1], [0.1, 0.9]])
        nearest, distance = niching.associate(normalized)
        assert nearest.tolist() == [0, 1]
        assert np.all(distance >= 0)

    def test_select_fills_empty_niches_first(self):
        niching = ReferencePointNiching(np.array([[1.0, 0.0], [0.0, 1.0]]))
        objs = np.array(
            [[0.1, 0.9], [0.2, 0.8], [0.9, 0.1], [0.8, 0.2]]
        )
        confirmed = np.array([0, 1])  # both in niche of [0, 1]
        partial = np.array([2, 3])
        picked = niching.select(objs, confirmed, partial, 1, seed=0)
        assert picked.size == 1 and picked[0] in (2, 3)

    def test_select_whole_front_shortcut(self):
        niching = ReferencePointNiching(das_dennis_points(2, 4))
        objs = np.random.default_rng(1).random((6, 2))
        partial = np.arange(6)
        picked = niching.select(objs, np.empty(0, dtype=np.int64), partial, 6)
        assert np.array_equal(picked, partial)

    def test_select_count_validated(self):
        niching = ReferencePointNiching(das_dennis_points(2, 4))
        objs = np.random.default_rng(1).random((3, 2))
        with pytest.raises(ValidationError):
            niching.select(objs, np.empty(0, dtype=np.int64), np.arange(3), 5)

    def test_select_matches_reference_byte_for_byte(self):
        """The list-based pick against the numpy-per-pick original: the
        same survivors and the same generator state after every call."""
        calls = 0
        rng = np.random.default_rng(11)
        for n_objectives, divisions in ((2, 4), (3, 4), (3, 12)):
            niching = _ReferenceNiching(das_dennis_points(n_objectives, divisions))
            for _ in range(120):
                size = int(rng.integers(1, 30))
                n_confirmed = int(rng.integers(0, 12)) if rng.random() < 0.7 else 0
                total = n_confirmed + size
                if rng.random() < 0.5:
                    # Few distinct values: ties in niche counts and distances.
                    objs = rng.integers(0, 4, size=(total, n_objectives)).astype(float)
                else:
                    objs = rng.random((total, n_objectives))
                if rng.random() < 0.3:  # duplicate points
                    objs[rng.integers(0, total, size=total // 2)] = objs[0]
                if rng.random() < 0.2:  # NaN objective rows
                    objs[rng.integers(0, total, size=2)] = np.nan
                elif rng.random() < 0.2:
                    # Infinite entries: NaN distances beside finite ones.
                    objs[rng.integers(0, total, size=2), 0] = np.inf
                order = rng.permutation(total)
                confirmed, partial = order[:n_confirmed], order[n_confirmed:]
                for n_select in {0, 1, max(1, size - 1), int(rng.integers(1, size + 1)), size}:
                    if n_select > size:
                        continue
                    draw = int(rng.integers(1 << 30))
                    want_rng = np.random.default_rng(draw)
                    got_rng = np.random.default_rng(draw)
                    with np.errstate(invalid="ignore"):  # inf - inf on purpose
                        want = niching.reference_select(
                            objs, confirmed, partial, n_select, want_rng
                        )
                        got = niching.select(objs, confirmed, partial, n_select, got_rng)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                    assert got_rng.bit_generator.state == want_rng.bit_generator.state
                    calls += 1
        assert calls > 1000

    def test_zero_reference_point_rejected(self):
        with pytest.raises(ValidationError):
            ReferencePointNiching(np.array([[0.0, 0.0]]))

    def test_normalize_range(self):
        objs = np.array([[10.0, 100.0], [20.0, 300.0], [15.0, 200.0]])
        normalized = ReferencePointNiching.normalize(objs)
        assert normalized.min() == pytest.approx(0.0)
        assert normalized.max() == pytest.approx(1.0)


class TestPopulationContainer:
    def _population(self, n=5):
        rng = np.random.default_rng(0)
        return Population(
            genomes=rng.integers(0, 4, size=(n, 3)),
            objectives=rng.random((n, 3)),
            violations=np.array([0, 1, 0, 2, 0][:n]),
        )

    def test_sizes_consistent(self):
        pop = self._population()
        assert len(pop) == 5 and pop.n_objectives == 3

    def test_inconsistent_rejected(self):
        with pytest.raises(ValidationError):
            Population(
                genomes=np.zeros((3, 2), dtype=np.int64),
                objectives=np.zeros((4, 3)),
                violations=np.zeros(3, dtype=np.int64),
            )

    def test_take_copies(self):
        pop = self._population()
        sub = pop.take(np.array([0, 2]))
        sub.genomes[0, 0] = 99
        assert pop.genomes[0, 0] != 99
        for name in ("genomes", "objectives", "violations"):
            assert not np.shares_memory(getattr(sub, name), getattr(pop, name)), name
        # Taking every row in order still copies.
        whole = pop.take(np.arange(len(pop)))
        assert not np.shares_memory(whole.genomes, pop.genomes)

    def test_concatenate(self):
        a, b = self._population(3), self._population(2)
        merged = Population.concatenate(a, b)
        assert len(merged) == 5

    def test_best_feasible_is_feasible(self):
        pop = self._population()
        idx = pop.best_feasible_index()
        assert pop.violations[idx] == 0

    def test_best_feasible_none_when_all_violate(self):
        pop = Population(
            genomes=np.zeros((2, 2), dtype=np.int64),
            objectives=np.ones((2, 3)),
            violations=np.array([1, 2]),
        )
        assert pop.best_feasible_index() is None
        assert pop.least_violating_index() == 0

    def test_ideal_point_pick(self):
        pop = Population(
            genomes=np.zeros((3, 2), dtype=np.int64),
            objectives=np.array(
                [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.1, 0.1, 0.1]]
            ),
            violations=np.zeros(3, dtype=np.int64),
        )
        # Point 2 is closest to the normalized ideal (0, 0, 0).
        assert pop.best_feasible_index() == 2


class TestConfigAndEncoding:
    def test_table3_defaults(self):
        config = NSGAConfig()
        assert config.population_size == 100
        assert config.max_evaluations == 10_000
        assert config.sbx_rate == 0.70
        assert config.sbx_distribution_index == 15.0
        assert config.pm_rate == 0.20
        assert config.pm_distribution_index == 15.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            NSGAConfig(population_size=3)
        with pytest.raises(ValidationError):
            NSGAConfig(population_size=5)  # odd
        with pytest.raises(ValidationError):
            NSGAConfig(max_evaluations=10, population_size=100)
        with pytest.raises(ValidationError):
            NSGAConfig(sbx_rate=1.5)
        with pytest.raises(ValidationError):
            NSGAConfig(time_limit=0.0)

    def test_with_update(self):
        config = NSGAConfig().with_(population_size=40)
        assert config.population_size == 40
        assert config.sbx_rate == 0.70

    def test_random_population_range(self):
        pop = random_population(10, 5, 7, seed=0)
        assert pop.shape == (10, 5)
        assert pop.min() >= 0 and pop.max() < 7

    def test_random_population_deterministic(self):
        assert np.array_equal(
            random_population(4, 3, 5, seed=1), random_population(4, 3, 5, seed=1)
        )

    def test_greedy_seed_feasible_when_roomy(self, small_infra, small_request):
        genome = greedy_seed(small_infra, small_request, seed=0)
        from repro.constraints import CapacityConstraint

        constraint = CapacityConstraint(small_infra, small_request.demand)
        assert constraint.violations(genome) == 0
