"""Construction of the spine-leaf fabric (paper Figure 1).

Topology shape, per datacenter::

    core tier (shared across datacenters)
      |     full mesh to every spine
    spine tier (n_spines switches)
      |     full bipartite mesh to every leaf
    leaf tier (n_leaves top-of-rack switches)
      |     servers_per_leaf servers each

Node naming: ``core:{c}``, ``dc{i}/spine:{s}``, ``dc{i}/leaf:{l}``,
``dc{i}/srv:{x}`` — stable strings usable as graph keys and report
labels.  Edges carry a ``bandwidth`` attribute (Gbps) and a ``tier``
label (``core-spine``, ``spine-leaf``, ``leaf-server``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from repro.errors import TopologyError, ValidationError
from repro.model.attributes import DEFAULT_ATTRIBUTES, AttributeSchema
from repro.model.infrastructure import Infrastructure

__all__ = ["FabricSpec", "SpineLeafFabric"]


@dataclass(frozen=True)
class FabricSpec:
    """Shape of one spine-leaf datacenter fabric.

    Parameters
    ----------
    datacenters:
        Number of datacenters joined at the core tier.
    spines, leaves, servers_per_leaf:
        Per-datacenter tier sizes.
    cores:
        Core switches joining the datacenters (0 allowed when
        ``datacenters == 1``).
    leaf_uplink_gbps, server_link_gbps, core_link_gbps:
        Link bandwidths per tier.
    """

    datacenters: int = 1
    spines: int = 2
    leaves: int = 4
    servers_per_leaf: int = 8
    cores: int = 2
    leaf_uplink_gbps: float = 40.0
    server_link_gbps: float = 10.0
    core_link_gbps: float = 100.0

    def __post_init__(self) -> None:
        for name in ("datacenters", "spines", "leaves", "servers_per_leaf"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if self.cores < 0:
            raise ValidationError("cores must be >= 0")
        if self.datacenters > 1 and self.cores < 1:
            raise TopologyError(
                "multiple datacenters need at least one core switch"
            )
        for name in ("leaf_uplink_gbps", "server_link_gbps", "core_link_gbps"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be > 0")

    @property
    def servers_per_datacenter(self) -> int:
        """Hosts per datacenter."""
        return self.leaves * self.servers_per_leaf


@dataclass
class SpineLeafFabric:
    """A constructed fabric: graph + node bookkeeping."""

    spec: FabricSpec
    graph: nx.Graph = field(init=False)
    server_nodes: list[str] = field(init=False)
    server_datacenter: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        spec = self.spec
        graph = nx.Graph()
        server_nodes: list[str] = []
        server_dc: list[int] = []

        core_nodes = [f"core:{c}" for c in range(spec.cores)]
        for node in core_nodes:
            graph.add_node(node, tier="core")

        for i in range(spec.datacenters):
            spine_nodes = [f"dc{i}/spine:{s}" for s in range(spec.spines)]
            leaf_nodes = [f"dc{i}/leaf:{l}" for l in range(spec.leaves)]
            for node in spine_nodes:
                graph.add_node(node, tier="spine", datacenter=i)
            for node in leaf_nodes:
                graph.add_node(node, tier="leaf", datacenter=i)
            for core in core_nodes:
                for spine in spine_nodes:
                    graph.add_edge(
                        core,
                        spine,
                        tier="core-spine",
                        bandwidth=spec.core_link_gbps,
                    )
            for spine in spine_nodes:
                for leaf in leaf_nodes:
                    graph.add_edge(
                        spine,
                        leaf,
                        tier="spine-leaf",
                        bandwidth=spec.leaf_uplink_gbps,
                    )
            for l, leaf in enumerate(leaf_nodes):
                for x in range(spec.servers_per_leaf):
                    server = f"dc{i}/srv:{l * spec.servers_per_leaf + x}"
                    graph.add_node(server, tier="server", datacenter=i)
                    graph.add_edge(
                        leaf,
                        server,
                        tier="leaf-server",
                        bandwidth=spec.server_link_gbps,
                    )
                    server_nodes.append(server)
                    server_dc.append(i)

        self.graph = graph
        self.server_nodes = server_nodes
        self.server_datacenter = np.asarray(server_dc, dtype=np.int64)
        self._validate()

    def _validate(self) -> None:
        if not nx.is_connected(self.graph):
            raise TopologyError("fabric graph is not connected")
        for node, data in self.graph.nodes(data=True):
            if data["tier"] == "server" and self.graph.degree[node] != 1:
                raise TopologyError(f"server {node} must attach to exactly one leaf")

    # ------------------------------------------------------------------
    @property
    def n_servers(self) -> int:
        """Total hosts in the fabric."""
        return len(self.server_nodes)

    def leaf_of(self, server: str) -> str:
        """The top-of-rack switch a server hangs off."""
        neighbors = list(self.graph.neighbors(server))
        if len(neighbors) != 1:  # pragma: no cover - guarded by _validate
            raise TopologyError(f"{server} is not a single-homed server")
        return neighbors[0]

    # ------------------------------------------------------------------
    def to_infrastructure(
        self,
        capacity,
        capacity_factor=None,
        operating_cost: float | np.ndarray = 1.0,
        usage_cost: float | np.ndarray = 1.0,
        max_load: float = 0.8,
        max_qos: float = 0.99,
        schema: AttributeSchema = DEFAULT_ATTRIBUTES,
    ) -> Infrastructure:
        """Flatten the fabric into the matrix model.

        ``capacity`` is either one row (homogeneous servers) or a full
        (n_servers, h) matrix; cost arguments accept scalars or
        per-server vectors.
        """
        m = self.n_servers
        capacity = np.asarray(capacity, dtype=np.float64)
        if capacity.ndim == 1:
            capacity = np.tile(capacity, (m, 1))
        factor = (
            np.ones((m, schema.h))
            if capacity_factor is None
            else np.asarray(capacity_factor, dtype=np.float64)
        )
        if factor.ndim == 1:
            factor = np.tile(factor, (m, 1))

        def vec(value) -> np.ndarray:
            arr = np.asarray(value, dtype=np.float64)
            return np.full(m, float(arr)) if arr.ndim == 0 else arr

        return Infrastructure(
            capacity=capacity,
            capacity_factor=factor,
            operating_cost=vec(operating_cost),
            usage_cost=vec(usage_cost),
            max_load=np.full((m, schema.h), max_load),
            max_qos=np.full((m, schema.h), max_qos),
            server_datacenter=self.server_datacenter,
            schema=schema,
            server_names=tuple(self.server_nodes),
            datacenter_names=tuple(
                f"dc{i}" for i in range(self.spec.datacenters)
            ),
        )
