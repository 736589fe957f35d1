"""Unit tests for the Pareto archive, hop matrix and communication-cost
extension objective."""

import numpy as np
import pytest

from repro.ea import ParetoArchive
from repro.errors import DimensionError, ValidationError
from repro.model.placement import UNPLACED
from repro.objectives import CommunicationCost, uniform_group_traffic
from repro.topology import (
    FabricSpec,
    SpineLeafFabric,
    hop_distance,
    hop_matrix,
)


class TestParetoArchive:
    def test_accepts_nondominated(self):
        archive = ParetoArchive()
        assert archive.add(np.array([0]), np.array([1.0, 2.0]))
        assert archive.add(np.array([1]), np.array([2.0, 1.0]))
        assert len(archive) == 2

    def test_refuses_dominated_and_duplicates(self):
        archive = ParetoArchive()
        archive.add(np.array([0]), np.array([1.0, 1.0]))
        assert not archive.add(np.array([1]), np.array([2.0, 2.0]))
        assert not archive.add(np.array([2]), np.array([1.0, 1.0]))
        assert len(archive) == 1

    def test_evicts_newly_dominated(self):
        archive = ParetoArchive()
        archive.add(np.array([0]), np.array([3.0, 3.0]))
        archive.add(np.array([1]), np.array([1.0, 1.0]))  # dominates the first
        assert len(archive) == 1
        assert archive.objectives.tolist() == [[1.0, 1.0]]

    def test_capacity_evicts_most_crowded(self):
        archive = ParetoArchive(capacity=3)
        # Four nondominated points; two are nearly identical -> one of
        # the crowded pair must go.
        archive.add(np.array([0]), np.array([0.0, 10.0]))
        archive.add(np.array([1]), np.array([10.0, 0.0]))
        archive.add(np.array([2]), np.array([5.0, 5.0]))
        archive.add(np.array([3]), np.array([5.1, 4.9]))
        assert len(archive) == 3
        objs = archive.objectives
        assert [0.0, 10.0] in objs.tolist()
        assert [10.0, 0.0] in objs.tolist()

    def test_add_population_counts(self):
        archive = ParetoArchive()
        genomes = np.arange(6).reshape(3, 2)
        objectives = np.array([[1.0, 3.0], [3.0, 1.0], [4.0, 4.0]])
        entered = archive.add_population(genomes, objectives)
        assert entered == 2

    def test_best_by_ideal_point(self):
        archive = ParetoArchive()
        archive.add(np.array([0]), np.array([0.0, 10.0]))
        archive.add(np.array([1]), np.array([10.0, 0.0]))
        archive.add(np.array([2]), np.array([2.0, 2.0]))
        genome, objectives = archive.best()
        assert genome.tolist() == [2]

    def test_empty_best_is_none(self):
        assert ParetoArchive().best() is None

    def test_genome_copied_on_entry(self):
        archive = ParetoArchive()
        genome = np.array([7])
        archive.add(genome, np.array([1.0, 1.0]))
        genome[0] = 99
        assert archive.genomes[0, 0] == 7

    def test_capacity_validated(self):
        with pytest.raises(ValidationError):
            ParetoArchive(capacity=0)


@pytest.fixture
def fabric():
    return SpineLeafFabric(
        FabricSpec(datacenters=2, spines=2, leaves=2, servers_per_leaf=2)
    )


class TestHopMatrix:
    def test_matches_networkx_shortest_paths(self, fabric):
        matrix = hop_matrix(fabric)
        servers = fabric.server_nodes
        for i in range(len(servers)):
            for j in range(len(servers)):
                assert matrix[i, j] == hop_distance(fabric, servers[i], servers[j])

    def test_symmetric_zero_diagonal(self, fabric):
        matrix = hop_matrix(fabric)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)


class TestCommunicationCost:
    def test_traffic_builder(self):
        traffic = uniform_group_traffic(4, [(0, 1, 2)], rate=2.0)
        assert traffic[0, 1] == 2.0 and traffic[1, 2] == 2.0
        assert traffic[0, 3] == 0.0
        assert np.allclose(np.diag(traffic), 0.0)

    def test_builder_validates(self):
        with pytest.raises(ValidationError):
            uniform_group_traffic(2, [(0, 5)])
        with pytest.raises(ValidationError):
            uniform_group_traffic(2, [(0, 1)], rate=-1.0)

    def test_same_server_is_free(self, fabric):
        traffic = uniform_group_traffic(2, [(0, 1)], rate=3.0)
        cost = CommunicationCost(traffic, hop_matrix(fabric))
        assert cost.value(np.array([0, 0])) == 0.0

    def test_hop_weighting(self, fabric):
        traffic = uniform_group_traffic(2, [(0, 1)], rate=3.0)
        cost = CommunicationCost(traffic, hop_matrix(fabric))
        # Same leaf: 2 hops x rate 3 = 6; cross-dc: 6 hops x 3 = 18.
        assert cost.value(np.array([0, 1])) == pytest.approx(6.0)
        assert cost.value(np.array([0, 4])) == pytest.approx(18.0)

    def test_unplaced_pair_free(self, fabric):
        traffic = uniform_group_traffic(2, [(0, 1)], rate=1.0)
        cost = CommunicationCost(traffic, hop_matrix(fabric))
        assert cost.value(np.array([0, UNPLACED])) == 0.0

    def test_batch_matches_single(self, fabric):
        rng = np.random.default_rng(0)
        n = 6
        traffic = uniform_group_traffic(n, [(0, 1, 2), (3, 4)], rate=1.5)
        cost = CommunicationCost(traffic, hop_matrix(fabric))
        population = rng.integers(0, fabric.n_servers, size=(20, n))
        population[3, 1] = UNPLACED
        batch = cost.batch(population)
        # Hand sum over the traffic matrix's pairs.
        hops = hop_matrix(fabric)
        single = [
            sum(
                traffic[i, j] * hops[row[i], row[j]]
                for i in range(n)
                for j in range(i + 1, n)
                if row[i] != UNPLACED and row[j] != UNPLACED
            )
            for row in population
        ]
        assert np.allclose(batch, single)

    def test_affinity_rules_reduce_cost(self, fabric):
        """Placing a chatty pair under SAME_DATACENTER can never cost
        more than the worst cross-datacenter split."""
        traffic = uniform_group_traffic(2, [(0, 1)], rate=1.0)
        cost = CommunicationCost(traffic, hop_matrix(fabric))
        same_dc = [
            cost.value(np.array([i, j]))
            for i in range(4)
            for j in range(4)  # dc0 servers are 0..3
        ]
        cross = cost.value(np.array([0, 4]))
        assert max(same_dc) < cross

    def test_asymmetric_traffic_rejected(self, fabric):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError):
            CommunicationCost(bad, hop_matrix(fabric))

    def test_shape_checks(self, fabric):
        traffic = uniform_group_traffic(2, [(0, 1)])
        cost = CommunicationCost(traffic, hop_matrix(fabric))
        with pytest.raises(DimensionError):
            cost.value(np.array([0, 1, 2]))
        with pytest.raises(DimensionError):
            cost.batch(np.zeros((3, 5), dtype=np.int64))
