#!/usr/bin/env python3
"""Provider-side consolidation: pack tenants onto fewer servers.

The related work the paper builds on (Beloglazov & Buyya, BtrPlace)
optimizes *server activation*: an idle server can be powered down, so
the operating expense E_j should be paid once per active server, not
per hosted VM.  The library supports that accounting via the
``per_server_operating`` switch on the usage-cost objective; this
example contrasts the two accountings and shows how consolidation
emerges with best-fit packing versus load-spreading round robin.

Run:  python examples/provider_consolidation.py
"""

import numpy as np

from repro import (
    RoundRobinAllocator,
    ScenarioGenerator,
    ScenarioSpec,
)
from repro.baselines import BestFitAllocator, WorstFitAllocator
from repro.evaluation import format_table
from repro.model import Request
from repro.objectives import UsageOperatingCost


def main() -> None:
    spec = ScenarioSpec(
        servers=24,
        datacenters=2,
        vms=60,
        tightness=0.45,  # room to consolidate
        heterogeneity=0.0,  # identical servers: activation count is the story
        affinity_probability=0.3,
    )
    scenario = ScenarioGenerator(spec, seed=13).generate()
    infra = scenario.infrastructure
    merged, _ = Request.concatenate(scenario.requests)

    per_resource = UsageOperatingCost(infra, per_server_operating=False)
    per_server = UsageOperatingCost(infra, per_server_operating=True)

    rows = []
    for allocator in (
        BestFitAllocator(),
        RoundRobinAllocator(),
        WorstFitAllocator(),
    ):
        outcome = allocator.allocate(infra, scenario.requests)
        placed = outcome.assignment[outcome.assignment >= 0]
        active = np.unique(placed).size
        rows.append(
            [
                outcome.algorithm,
                f"{outcome.rejection_rate:.2f}",
                active,
                f"{per_resource.value(outcome.assignment):.1f}",
                f"{per_server.value(outcome.assignment):.1f}",
                f"{outcome.objectives[1]:.2f}",
            ]
        )

    print(
        format_table(
            [
                "algorithm",
                "rejection",
                "active servers",
                "cost (per-resource E)",
                "cost (per-server E)",
                "downtime cost",
            ],
            rows,
            title=(
                f"Consolidation on {infra.m} identical servers, "
                f"{scenario.n_vms} VMs"
            ),
        )
    )
    print(
        "\nBest-fit activates the fewest servers, so under per-server"
        "\naccounting it is the cheapest — the consolidation objective of"
        "\nthe energy-oriented related work.  Worst-fit spreads load and"
        "\nminimizes the downtime (QoS) objective instead: exactly the"
        "\nprovider-vs-consumer tension the paper's multi-objective model"
        "\nexists to balance."
    )


if __name__ == "__main__":
    main()
