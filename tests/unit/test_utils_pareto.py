"""Unit tests for Pareto-dominance primitives."""

import numpy as np
import pytest

from repro.utils.pareto import (
    dominance_matrix,
    dominates,
    ideal_point,
    nadir_point,
    non_dominated_mask,
    pareto_front_indices,
)


class TestDominates:
    def test_strictly_better_everywhere(self):
        assert dominates([1.0, 1.0], [2.0, 2.0])

    def test_better_in_one_equal_other(self):
        assert dominates([1.0, 2.0], [2.0, 2.0])

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates([1.0, 1.0], [1.0, 1.0])

    def test_incomparable(self):
        assert not dominates([1.0, 3.0], [3.0, 1.0])
        assert not dominates([3.0, 1.0], [1.0, 3.0])

    def test_dominance_is_antisymmetric(self):
        a, b = np.array([1.0, 2.0]), np.array([2.0, 3.0])
        assert dominates(a, b) and not dominates(b, a)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            dominates([1.0], [1.0, 2.0])


class TestDominanceMatrix:
    def test_matches_pairwise_definition(self):
        rng = np.random.default_rng(0)
        objs = rng.random((12, 3))
        dom = dominance_matrix(objs)
        for i in range(12):
            for j in range(12):
                assert dom[i, j] == dominates(objs[i], objs[j])

    def test_diagonal_is_false(self):
        objs = np.random.default_rng(1).random((6, 2))
        assert not dominance_matrix(objs).diagonal().any()

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            dominance_matrix(np.ones(3))


class TestFront:
    def test_single_point_is_front(self):
        assert pareto_front_indices(np.array([[1.0, 2.0]])).tolist() == [0]

    def test_known_front(self):
        objs = np.array(
            [[1.0, 4.0], [2.0, 2.0], [4.0, 1.0], [3.0, 3.0], [5.0, 5.0]]
        )
        assert pareto_front_indices(objs).tolist() == [0, 1, 2]

    def test_mask_complements_dominated(self):
        objs = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert non_dominated_mask(objs).tolist() == [True, False]

    def test_duplicates_are_both_nondominated(self):
        objs = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        assert pareto_front_indices(objs).tolist() == [0, 1]


class TestIdealNadir:
    def test_ideal_is_componentwise_min(self):
        objs = np.array([[1.0, 5.0], [4.0, 2.0]])
        assert ideal_point(objs).tolist() == [1.0, 2.0]

    def test_nadir_over_front_only(self):
        objs = np.array([[1.0, 4.0], [4.0, 1.0], [10.0, 10.0]])
        assert nadir_point(objs).tolist() == [4.0, 4.0]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ideal_point(np.empty((0, 2)))


def _dominance_oracle(objectives):
    """The (n, n, m) broadcast formulation, kept verbatim as the oracle
    for the column-at-a-time :func:`dominance_matrix`."""
    obj = np.asarray(objectives, dtype=np.float64)
    le = np.all(obj[:, None, :] <= obj[None, :, :], axis=2)
    lt = np.any(obj[:, None, :] < obj[None, :, :], axis=2)
    return le & lt


class TestDominanceMatrixParity:
    @pytest.mark.parametrize("n_obj", [0, 1, 2, 3, 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 40, 200])
    def test_matches_broadcast_formulation(self, n, n_obj):
        rng = np.random.default_rng(100 * n + n_obj)
        for trial in range(4):
            # Few distinct levels: many ties, equal rows and partial ties.
            objs = rng.integers(0, 3 + trial, size=(n, n_obj)).astype(np.float64)
            if trial >= 2 and n:
                # Whole NaN rows, plus scattered NaN cells, plus infinities.
                objs[rng.random(n) < 0.2] = np.nan
                objs[rng.random((n, n_obj)) < 0.05] = np.nan
                objs[rng.random((n, n_obj)) < 0.05] = np.inf
            if trial == 3:
                objs = objs + rng.random((n, n_obj))
            got = dominance_matrix(objs)
            want = _dominance_oracle(objs)
            assert got.dtype == want.dtype == np.bool_
            assert got.shape == want.shape == (n, n)
            assert got.tobytes() == want.tobytes()

    def test_integer_and_list_input(self):
        objs = [[1, 2, 3], [1, 2, 3], [0, 2, 4], [2, 1, 0]]
        assert dominance_matrix(objs).tobytes() == _dominance_oracle(objs).tobytes()
