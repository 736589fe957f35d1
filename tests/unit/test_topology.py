"""Unit tests for the spine-leaf fabric and its analysis functions."""

import numpy as np
import pytest

from repro.errors import TopologyError, ValidationError
from repro.topology import (
    FabricSpec,
    SpineLeafFabric,
    hop_matrix,
    oversubscription_ratio,
    path_redundancy,
)


@pytest.fixture
def fabric() -> SpineLeafFabric:
    return SpineLeafFabric(
        FabricSpec(
            datacenters=2, spines=3, leaves=4, servers_per_leaf=2, cores=2
        )
    )


class TestSpec:
    def test_sizes(self):
        spec = FabricSpec(datacenters=2, spines=2, leaves=4, servers_per_leaf=8)
        assert spec.servers_per_datacenter == 32

    def test_multi_dc_needs_core(self):
        with pytest.raises(TopologyError):
            FabricSpec(datacenters=2, cores=0)

    def test_single_dc_without_core_allowed(self):
        spec = FabricSpec(datacenters=1, cores=0)
        fabric = SpineLeafFabric(spec)
        assert fabric.n_servers == spec.servers_per_datacenter

    def test_positive_sizes_enforced(self):
        with pytest.raises(ValidationError):
            FabricSpec(spines=0)
        with pytest.raises(ValidationError):
            FabricSpec(server_link_gbps=0)


class TestFabricStructure:
    def test_server_count_and_dc_map(self, fabric):
        assert fabric.n_servers == 16
        assert fabric.server_datacenter.tolist() == [0] * 8 + [1] * 8

    def test_every_server_single_homed(self, fabric):
        for server in fabric.server_nodes:
            assert fabric.graph.degree[server] == 1

    def test_leaf_of(self, fabric):
        leaf = fabric.leaf_of(fabric.server_nodes[0])
        assert fabric.graph.nodes[leaf]["tier"] == "leaf"

    def test_edge_tiers_labelled(self, fabric):
        tiers = {data["tier"] for _, _, data in fabric.graph.edges(data=True)}
        assert tiers == {"core-spine", "spine-leaf", "leaf-server"}


class TestAnalysis:
    def test_hop_distances(self, fabric):
        hops = hop_matrix(fabric)
        assert hops[0, 0] == 0
        assert hops[0, 1] == 2  # same leaf
        assert hops[0, 2] == 4  # same dc
        assert hops[0, 8] == 6  # cross dc

    def test_redundancy_same_dc_equals_spines(self, fabric):
        # Two leaves in one datacenter are joined through all 3 spines
        # (plus core detours) -- at least the spine count.
        servers = fabric.server_nodes
        assert path_redundancy(fabric, servers[0], servers[2]) >= 3

    def test_redundancy_cross_dc_limited_by_leaf_uplinks(self, fabric):
        # Edge-disjoint paths may share core *nodes*, so the cross-DC
        # cut is the 3 leaf uplinks, not the 2 cores.
        servers = fabric.server_nodes
        assert path_redundancy(fabric, servers[0], servers[8]) == 3

    def test_redundancy_same_leaf_trivial(self, fabric):
        servers = fabric.server_nodes
        assert path_redundancy(fabric, servers[0], servers[1]) == 1

    def test_oversubscription(self):
        fabric = SpineLeafFabric(
            FabricSpec(
                datacenters=1,
                cores=0,
                spines=2,
                leaves=2,
                servers_per_leaf=8,
                server_link_gbps=10,
                leaf_uplink_gbps=40,
            )
        )
        assert oversubscription_ratio(fabric) == pytest.approx(1.0)

    def test_non_server_node_rejected(self, fabric):
        with pytest.raises(TopologyError):
            path_redundancy(fabric, "core:0", fabric.server_nodes[0])


class TestToInfrastructure:
    def test_homogeneous(self, fabric):
        infra = fabric.to_infrastructure(capacity=[16, 64, 500])
        assert infra.m == fabric.n_servers
        assert infra.g == 2
        assert np.all(infra.capacity == [16, 64, 500])
        assert infra.server_names == tuple(fabric.server_nodes)

    def test_per_server_costs(self, fabric):
        costs = np.arange(fabric.n_servers, dtype=np.float64)
        infra = fabric.to_infrastructure(
            capacity=[16, 64, 500], operating_cost=costs
        )
        assert np.array_equal(infra.operating_cost, costs)

    def test_full_capacity_matrix(self, fabric):
        capacity = np.random.default_rng(0).uniform(
            10, 20, size=(fabric.n_servers, 3)
        )
        infra = fabric.to_infrastructure(capacity=capacity)
        assert np.allclose(infra.capacity, capacity)
