"""Unit tests for genetic operators: SBX, PM, discrete pair, selection."""

import numpy as np
import pytest

from repro.ea.operators import (
    binary_tournament,
    polynomial_mutation,
    random_reset_mutation,
    sbx_crossover,
    uniform_crossover,
)
from repro.ea.operators.selection import random_mating_pool
from repro.errors import ValidationError
from repro.utils.rng import as_generator


class TestSBX:
    def test_shape_and_range(self):
        rng = np.random.default_rng(0)
        parents = rng.integers(0, 20, size=(40, 15))
        children = sbx_crossover(parents, n_servers=20, seed=1)
        assert children.shape == parents.shape
        assert children.min() >= 0 and children.max() < 20

    def test_rate_zero_is_identity(self):
        parents = np.random.default_rng(1).integers(0, 9, size=(10, 6))
        children = sbx_crossover(parents, n_servers=9, rate=0.0, seed=2)
        assert np.array_equal(children, parents)

    def test_identical_parents_yield_identical_children(self):
        parents = np.tile(np.arange(8), (4, 1))
        children = sbx_crossover(parents, n_servers=8, rate=1.0, seed=3)
        assert np.array_equal(children, parents)

    def test_high_eta_keeps_children_near_parents(self):
        parents = np.array([[0] * 50, [10] * 50]).astype(np.int64)
        children = sbx_crossover(parents, n_servers=100, rate=1.0, eta=1000.0, seed=4)
        # With a huge distribution index children hug the parents.
        assert np.all(np.minimum(np.abs(children - 0), np.abs(children - 10)) <= 2)

    def test_odd_parent_count_rejected(self):
        with pytest.raises(ValidationError):
            sbx_crossover(np.zeros((3, 2), dtype=np.int64), n_servers=4)

    def test_deterministic_given_seed(self):
        parents = np.random.default_rng(5).integers(0, 30, size=(20, 8))
        a = sbx_crossover(parents, n_servers=30, seed=42)
        b = sbx_crossover(parents, n_servers=30, seed=42)
        assert np.array_equal(a, b)


class TestPolynomialMutation:
    def test_shape_and_range(self):
        genomes = np.random.default_rng(0).integers(0, 50, size=(30, 20))
        mutated = polynomial_mutation(genomes, n_servers=50, seed=1)
        assert mutated.shape == genomes.shape
        assert mutated.min() >= 0 and mutated.max() < 50

    def test_rate_zero_is_identity(self):
        genomes = np.random.default_rng(1).integers(0, 9, size=(5, 7))
        assert np.array_equal(
            polynomial_mutation(genomes, n_servers=9, rate=0.0, seed=2), genomes
        )

    def test_rate_controls_change_fraction(self):
        genomes = np.full((50, 100), 25, dtype=np.int64)
        low = polynomial_mutation(genomes, n_servers=50, rate=0.05, seed=3)
        high = polynomial_mutation(genomes, n_servers=50, rate=0.9, seed=3)
        assert (low != genomes).mean() < (high != genomes).mean()

    def test_single_server_noop(self):
        genomes = np.zeros((4, 5), dtype=np.int64)
        assert np.array_equal(
            polynomial_mutation(genomes, n_servers=1, rate=1.0), genomes
        )

    def test_input_not_modified(self):
        genomes = np.random.default_rng(2).integers(0, 9, size=(6, 6))
        snapshot = genomes.copy()
        polynomial_mutation(genomes, n_servers=9, rate=1.0, seed=4)
        assert np.array_equal(genomes, snapshot)


class TestDiscreteOperators:
    def test_uniform_crossover_genes_come_from_parents(self):
        rng = np.random.default_rng(0)
        parents = rng.integers(0, 100, size=(20, 12))
        children = uniform_crossover(parents, rate=1.0, seed=1)
        p1, p2 = parents[0::2], parents[1::2]
        c1, c2 = children[0::2], children[1::2]
        assert np.all((c1 == p1) | (c1 == p2))
        assert np.all((c2 == p1) | (c2 == p2))

    def test_uniform_crossover_preserves_multiset_per_gene(self):
        parents = np.random.default_rng(1).integers(0, 50, size=(10, 8))
        children = uniform_crossover(parents, rate=1.0, seed=2)
        for pair in range(5):
            p = np.sort(parents[2 * pair : 2 * pair + 2], axis=0)
            c = np.sort(children[2 * pair : 2 * pair + 2], axis=0)
            assert np.array_equal(p, c)

    def test_random_reset_range(self):
        genomes = np.zeros((10, 10), dtype=np.int64)
        mutated = random_reset_mutation(genomes, n_servers=5, rate=1.0, seed=3)
        assert mutated.min() >= 0 and mutated.max() < 5


class TestSelection:
    def test_tournament_prefers_lower_rank(self):
        ranks = np.array([0, 5])
        winners = binary_tournament(ranks, None, n_parents=200, seed=0)
        # Individual 0 must win every mixed tournament.
        share = (winners == 0).mean()
        assert share > 0.6

    def test_tournament_prefers_feasible_tier(self):
        ranks = np.array([5, 0])  # worse rank but feasible
        tiers = np.array([0, 3])
        winners = binary_tournament(ranks, None, n_parents=200, tiers=tiers, seed=1)
        assert (winners == 0).mean() > 0.6

    def test_tournament_crowding_tiebreak(self):
        ranks = np.array([0, 0])
        crowding = np.array([10.0, 0.1])
        winners = binary_tournament(ranks, crowding, n_parents=200, seed=2)
        assert (winners == 0).mean() > 0.6

    def test_empty_population_rejected(self):
        with pytest.raises(ValidationError):
            binary_tournament(np.empty(0, dtype=np.int64), None, 4)

    def test_random_pool_range(self):
        pool = random_mating_pool(10, 50, seed=3)
        assert pool.shape == (50,)
        assert pool.min() >= 0 and pool.max() < 10


# ----------------------------------------------------------------------
# Parity with the full-matrix formulations.  SBX and polynomial
# mutation compute only the genes they change; the oracles below are
# the earlier bodies that evaluated every gene, kept verbatim.  Each
# call must return the same bytes and leave the generator in the same
# state.
# ----------------------------------------------------------------------
def _spread_factor_oracle(u, eta):
    beta = np.empty_like(u)
    low = u <= 0.5
    beta[low] = (2.0 * u[low]) ** (1.0 / (eta + 1.0))
    beta[~low] = (1.0 / (2.0 * (1.0 - u[~low]))) ** (1.0 / (eta + 1.0))
    return beta


def _sbx_oracle(parents, n_servers, rate=0.70, eta=15.0, seed=None):
    parents = np.asarray(parents, dtype=np.int64)
    pop, n = parents.shape
    rng = as_generator(seed)

    p1 = parents[0::2].astype(np.float64)
    p2 = parents[1::2].astype(np.float64)
    pairs = pop // 2

    u = rng.random((pairs, n))
    beta = _spread_factor_oracle(u, eta)
    c1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    c2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)

    swap = rng.random((pairs, n)) < 0.5
    c1s = np.where(swap, c2, c1)
    c2s = np.where(swap, c1, c2)

    cross_mask = (rng.random(pairs) < rate)[:, None]
    child1 = np.where(cross_mask, c1s, p1)
    child2 = np.where(cross_mask, c2s, p2)

    offspring = np.empty_like(parents, dtype=np.float64)
    offspring[0::2] = child1
    offspring[1::2] = child2
    rounded = np.rint(offspring).astype(np.int64)
    np.clip(rounded, 0, n_servers - 1, out=rounded)
    return rounded


def _polynomial_oracle(genomes, n_servers, rate=0.20, eta=15.0, seed=None):
    genomes = np.asarray(genomes, dtype=np.int64)
    rng = as_generator(seed)

    if n_servers == 1:
        return genomes.copy()

    lo, hi = 0.0, float(n_servers - 1)
    span = hi - lo
    x = genomes.astype(np.float64)
    mutate = rng.random(genomes.shape) < rate
    u = rng.random(genomes.shape)

    delta1 = (x - lo) / span
    delta2 = (hi - x) / span
    mut_pow = 1.0 / (eta + 1.0)
    with np.errstate(invalid="ignore"):
        below = u < 0.5
        xy = np.where(below, 1.0 - delta1, 1.0 - delta2)
        val = np.where(
            below,
            2.0 * u + (1.0 - 2.0 * u) * xy ** (eta + 1.0),
            2.0 * (1.0 - u) + 2.0 * (u - 0.5) * xy ** (eta + 1.0),
        )
        deltaq = np.where(below, val**mut_pow - 1.0, 1.0 - val**mut_pow)

    mutated = x + deltaq * span
    out = np.where(mutate, mutated, x)
    rounded = np.rint(out).astype(np.int64)
    np.clip(rounded, 0, n_servers - 1, out=rounded)
    return rounded


def _genomes(rng, pop, n, m, dtype=np.int64, outside=False):
    genomes = rng.integers(0, m, size=(pop, n)).astype(dtype)
    if outside and genomes.size:
        # Unplaced (-1), just past the top and far outside on both sides.
        picks = rng.random(genomes.shape)
        genomes[picks < 0.1] = -1
        genomes[(picks >= 0.1) & (picks < 0.2)] = m + 3
        genomes[(picks >= 0.2) & (picks < 0.25)] = -40
        genomes[(picks >= 0.25) & (picks < 0.3)] = 4 * m + 11
    return genomes


def _assert_parity(operator, oracle, genomes, seed, **kwargs):
    got_rng = np.random.default_rng(seed)
    want_rng = np.random.default_rng(seed)
    # Genes far below zero send the polynomial formula through NaN, which
    # both formulations cast (with a warning) and clip the same way.
    with np.errstate(invalid="ignore"):
        got = operator(genomes, seed=got_rng, **kwargs)
        want = oracle(genomes, seed=want_rng, **kwargs)
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


_ETAS = [0.5, 1.0, 2.0, 15.0, 37.5, 100.0]
#: operator, oracle and the (pop, n) shapes it is fuzzed over; SBX needs
#: an even population.
_OPERATORS = {
    "sbx": (sbx_crossover, _sbx_oracle, [(0, 5), (2, 1), (4, 7), (6, 13), (10, 31)]),
    "polynomial": (
        polynomial_mutation,
        _polynomial_oracle,
        [(0, 5), (2, 1), (3, 1), (5, 9), (6, 13), (10, 31)],
    ),
}


class TestOperatorParity:
    @pytest.mark.parametrize("name", sorted(_OPERATORS))
    @pytest.mark.parametrize("m", [1, 2, 3, 17])
    @pytest.mark.parametrize("rate", [0.0, 0.2, 0.7, 1.0])
    def test_matches_full_matrix_formulation(self, name, m, rate):
        operator, oracle, shapes = _OPERATORS[name]
        rng = np.random.default_rng([len(name), m, int(100 * rate)])
        for pop, n in shapes:
            for eta in _ETAS:
                for dtype in (np.int64, np.int32):
                    for outside in (False, True):
                        genomes = _genomes(rng, pop, n, m, dtype, outside)
                        _assert_parity(
                            operator,
                            oracle,
                            genomes,
                            seed=int(rng.integers(2**32)),
                            n_servers=m,
                            rate=rate,
                            eta=eta,
                        )

    def test_paper_scale_genomes(self):
        """100 x 1600 genomes over 800 servers (Table III rates): long
        enough that vectorized main loops are compared, not only their
        scalar tails."""
        rng = np.random.default_rng(7)
        genomes = _genomes(rng, 100, 1600, 800)
        for seed in (0, 1):
            _assert_parity(
                sbx_crossover, _sbx_oracle, genomes, seed, n_servers=800
            )
            _assert_parity(
                polynomial_mutation,
                _polynomial_oracle,
                genomes,
                seed,
                n_servers=800,
            )

    def test_chained_calls_share_one_stream(self):
        """Crossover then mutation on one generator, as a generation
        runs them: the stream stays aligned call after call."""
        genomes = _genomes(np.random.default_rng(3), 20, 40, 30)
        got_rng = np.random.default_rng(11)
        want_rng = np.random.default_rng(11)
        got = want = genomes
        for _ in range(5):
            got = polynomial_mutation(
                sbx_crossover(got, 30, seed=got_rng), 30, seed=got_rng
            )
            want = _polynomial_oracle(
                _sbx_oracle(want, 30, seed=want_rng), 30, seed=want_rng
            )
            assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
