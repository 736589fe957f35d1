#!/usr/bin/env python3
"""What affinity rules buy on the wire: communication-cost analysis.

The paper motivates the spine-leaf fabric with bandwidth, and its
affinity rules with consumer interests — this example connects the two
using the :class:`~repro.objectives.network.CommunicationCost`
extension objective.  A chatty three-tier application is placed three
ways (no rules / SAME_DATACENTER / SAME_SERVER pairs) and the resulting
hop-weighted traffic is measured, alongside the availability trade-off
(path redundancy between replicas).

Run:  python examples/network_aware_placement.py
"""

import numpy as np

from repro import (
    FabricSpec,
    NSGA3TabuAllocator,
    NSGAConfig,
    PlacementGroup,
    PlacementRule,
    Request,
    SpineLeafFabric,
)
from repro.evaluation import format_table
from repro.objectives import CommunicationCost
from repro.topology import hop_matrix, path_redundancy


def _request(groups) -> Request:
    # Three-tier app: 2 web, 2 app, 2 db — 6 VMs, heavy web<->app and
    # app<->db chatter.
    return Request(
        demand=np.array(
            [
                [2, 8, 50],
                [2, 8, 50],
                [4, 16, 100],
                [4, 16, 100],
                [4, 32, 300],
                [4, 32, 300],
            ],
            dtype=float,
        ),
        qos_guarantee=np.full(6, 0.95),
        downtime_cost=np.full(6, 5.0),
        migration_cost=np.ones(6),
        groups=groups,
        name="three-tier",
    )


def main() -> None:
    fabric = SpineLeafFabric(
        FabricSpec(datacenters=2, spines=2, leaves=3, servers_per_leaf=4)
    )
    infra = fabric.to_infrastructure(
        capacity=[32, 128, 2000], operating_cost=2.0, usage_cost=1.0
    )
    hops = hop_matrix(fabric)

    # Traffic: web pair <-> app pair <-> db pair (tier bipartite flows).
    traffic = np.zeros((6, 6))
    for a in (0, 1):
        for b in (2, 3):
            traffic[a, b] = traffic[b, a] = 5.0   # web <-> app
    for a in (2, 3):
        for b in (4, 5):
            traffic[a, b] = traffic[b, a] = 10.0  # app <-> db
    comm = CommunicationCost(traffic, hops)

    variants = {
        "no rules": (),
        "tiers same datacenter": (
            PlacementGroup(PlacementRule.SAME_DATACENTER, (0, 1, 2, 3, 4, 5)),
        ),
        "chatty pairs same server": (
            PlacementGroup(PlacementRule.SAME_SERVER, (2, 4)),
            PlacementGroup(PlacementRule.SAME_SERVER, (3, 5)),
            PlacementGroup(PlacementRule.SAME_DATACENTER, (0, 1, 2, 3, 4, 5)),
        ),
        "db pair split for DR": (
            PlacementGroup(PlacementRule.DIFFERENT_DATACENTERS, (4, 5)),
        ),
    }

    allocator_config = NSGAConfig(population_size=40, max_evaluations=1600, seed=5)
    rows = []
    for label, groups in variants.items():
        request = _request(groups)
        outcome = NSGA3TabuAllocator(allocator_config).allocate(infra, [request])
        assignment = outcome.assignment
        cost = comm.value(assignment)
        db_redundancy = path_redundancy(
            fabric,
            fabric.server_nodes[assignment[4]],
            fabric.server_nodes[assignment[5]],
        )
        rows.append(
            [
                label,
                outcome.violations,
                f"{cost:.0f}",
                db_redundancy,
                f"{outcome.provider_cost:.0f}",
            ]
        )

    print(
        format_table(
            [
                "placement policy",
                "violations",
                "traffic cost (flow x hops)",
                "db-pair path redundancy",
                "provider cost",
            ],
            rows,
            title="Affinity rules vs. network traffic vs. availability",
        )
    )
    print(
        "\nCo-location slashes hop-weighted traffic; splitting the database"
        "\nacross datacenters pays 6-hop flows but survives a whole-site"
        "\nfailure — the consumer-side trade the paper's rules let tenants"
        "\nexpress."
    )


if __name__ == "__main__":
    main()
