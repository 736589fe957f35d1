"""Structural analysis of the spine-leaf fabric.

The architecture is chosen for "managing both redundancy and
bandwidth" (paper Section III); these functions quantify exactly that:

* :func:`path_redundancy` — edge-disjoint paths between two servers
  (how many independent failures the pair survives);
* :func:`hop_matrix` — all-pairs shortest-path lengths, the latency
  proxy the affinity rules trade against availability;
* :func:`oversubscription_ratio` — downlink/uplink bandwidth ratio at
  the leaf tier, the classic fabric sizing metric.
"""

from __future__ import annotations

import networkx as nx

from repro.errors import TopologyError
from repro.topology.spine_leaf import SpineLeafFabric

__all__ = [
    "path_redundancy",
    "hop_matrix",
    "oversubscription_ratio",
]


def _check_server(fabric: SpineLeafFabric, server: str) -> None:
    data = fabric.graph.nodes.get(server)
    if data is None or data.get("tier") != "server":
        raise TopologyError(f"{server!r} is not a server node of this fabric")


def path_redundancy(fabric: SpineLeafFabric, a: str, b: str) -> int:
    """Number of edge-disjoint paths between servers ``a`` and ``b``.

    Servers are single-homed, so the fabric-wide maximum is 1 at the
    server links; the interesting quantity is redundancy between the
    *leaves*, which is what this returns for servers on different
    leaves (spine count within a datacenter, core-limited across).
    Same-leaf (and same-server) pairs return the trivial 1.
    """
    _check_server(fabric, a)
    _check_server(fabric, b)
    if a == b:
        return 1
    leaf_a, leaf_b = fabric.leaf_of(a), fabric.leaf_of(b)
    if leaf_a == leaf_b:
        return 1
    return nx.edge_connectivity(fabric.graph, leaf_a, leaf_b)


def hop_matrix(fabric: SpineLeafFabric):
    """All-pairs server hop distances as an (m, m) float matrix.

    Exploits the regular structure instead of running BFS per pair:
    0 on the diagonal, 2 within a leaf, 4 within a datacenter, 6
    across datacenters (server-leaf-spine-core-spine-leaf-server).  The
    structural shortcut is asserted against networkx in the tests.
    """
    import numpy as np

    servers = fabric.server_nodes
    leaves = np.asarray(
        [fabric.leaf_of(server) for server in servers], dtype=object
    )
    dcs = fabric.server_datacenter
    m = len(servers)
    same_leaf = leaves[:, None] == leaves[None, :]
    same_dc = dcs[:, None] == dcs[None, :]
    matrix = np.full((m, m), 6.0)
    matrix[same_dc] = 4.0
    matrix[same_leaf] = 2.0
    np.fill_diagonal(matrix, 0.0)
    return matrix


def oversubscription_ratio(fabric: SpineLeafFabric) -> float:
    """Leaf-tier oversubscription: total server downlink bandwidth per
    leaf divided by its total spine uplink bandwidth.

    1.0 means a non-blocking leaf; > 1 means contention under full
    server load — the provider-side capacity/availability trade the
    allocation objectives monetize.
    """
    spec = fabric.spec
    downlink = spec.servers_per_leaf * spec.server_link_gbps
    uplink = spec.spines * spec.leaf_uplink_gbps
    if uplink <= 0:  # pragma: no cover - spec validation forbids it
        raise TopologyError("leaf has no uplink bandwidth")
    return downlink / uplink
