"""Physical datacenter topology: the Core/Leaf-Spine fabric of Figure 1.

The paper grounds its model in "a very popular cloud architecture ...
the Core/Leaf-Spine distributed network architecture" (Al-Fares et al.,
Alizadeh & Edsall, Greenberg et al.).  This package builds that fabric
as a :mod:`networkx` graph — core switches joining datacenters, spine
and leaf tiers inside each, servers hanging off leaves — and derives
the structural quantities the architecture is chosen for: path
redundancy between any two servers, oversubscription ratios, and hop
distances (which the examples use to reason about affinity rules:
same-leaf traffic is 2 hops, cross-datacenter is 6).

:meth:`SpineLeafFabric.to_infrastructure` flattens the fabric into the
matrix :class:`~repro.model.infrastructure.Infrastructure` the
allocation algorithms consume, so examples can start from hardware
shape rather than raw matrices.
"""

from repro.topology.spine_leaf import FabricSpec, SpineLeafFabric
from repro.topology.analysis import (
    hop_matrix,
    oversubscription_ratio,
    path_redundancy,
)

__all__ = [
    "FabricSpec",
    "SpineLeafFabric",
    "hop_matrix",
    "oversubscription_ratio",
    "path_redundancy",
]
