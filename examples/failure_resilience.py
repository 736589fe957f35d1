#!/usr/bin/env python3
"""Surviving hardware failures: displacement, re-placement, DR rules.

The paper's future work names "platform failures" as the flow events a
production allocator must absorb.  This example drives the scheduler
with a Poisson arrival trace *plus* injected server failures, and
shows (a) displaced tenants being re-placed automatically with failed
servers blocked, and (b) why a DIFFERENT_DATACENTERS rule on a
replicated pair keeps the service alive through a whole-datacenter
outage.

Run:  python examples/failure_resilience.py
"""

import numpy as np

from repro import (
    Infrastructure,
    PlacementGroup,
    PlacementRule,
    Request,
    TimeWindowScheduler,
)
from repro.baselines import FilterSchedulerAllocator
from repro.scheduler import scenario_metrics
from repro.workloads import ScenarioSpec, TraceGenerator, TraceSpec


def main() -> None:
    infra = Infrastructure.homogeneous(
        datacenters=2,
        servers_per_datacenter=10,
        capacity=[32, 128, 2000],
        operating_cost=2.0,
        usage_cost=1.0,
    )

    # ------------------------------------------------------------------
    # Part 1: churn + random failures through the scheduler.
    # ------------------------------------------------------------------
    scenario_spec = ScenarioSpec(
        servers=infra.m, datacenters=2, vms=60, tightness=0.5
    )
    trace, _ = TraceGenerator(
        TraceSpec(
            horizon=12.0,
            arrival_rate=2.0,
            mean_lifetime=6.0,
            failure_rate=0.4,
            mean_repair_time=3.0,
        ),
        scenario_spec,
        seed=9,
    ).generate()

    scheduler = TimeWindowScheduler(infra, FilterSchedulerAllocator())
    trace.apply_to(scheduler)
    reports = scheduler.run(max_windows=64)
    scheduler.state.verify_consistency()

    summary = scenario_metrics(reports)
    print(
        f"trace: {summary.arrivals} arrivals, {summary.failures} server "
        f"failures, {summary.recoveries} recoveries over {summary.windows} windows"
    )
    print(
        f"decisions: {summary.accepted} accepted, {summary.rejected} rejected "
        f"({summary.rejection_rate:.0%}), {summary.displaced} tenants displaced "
        f"by failures and re-placed"
    )
    for report in reports:
        if report.failures:
            print(
                f"  window {report.window_index:2d}: server(s) "
                f"{list(report.failures)} failed -> displaced "
                f"{list(report.displaced)}"
            )

    # ------------------------------------------------------------------
    # Part 2: why the DR rule matters — a whole datacenter goes dark.
    # ------------------------------------------------------------------
    def replicated_pair(groups) -> Request:
        return Request(
            demand=np.array([[8, 32, 400], [8, 32, 400]], dtype=float),
            qos_guarantee=np.array([0.99, 0.99]),
            downtime_cost=np.array([100.0, 100.0]),
            migration_cost=np.array([10.0, 10.0]),
            groups=groups,
        )

    print("\nwhole-datacenter outage drill:")
    for label, groups in [
        ("no placement rule", ()),
        (
            "DIFFERENT_DATACENTERS rule",
            (PlacementGroup(PlacementRule.DIFFERENT_DATACENTERS, (0, 1)),),
        ),
    ]:
        drill = TimeWindowScheduler(infra, FilterSchedulerAllocator())
        drill.submit("svc", replicated_pair(groups), at=0.0)
        drill.run_window()
        assignment = drill.state.previous_assignment("svc")
        dcs = infra.server_datacenter[assignment]
        # Datacenter 0 goes dark.
        survivors = int(np.sum(dcs != 0))
        print(
            f"  {label:28s} replicas in datacenters {sorted(set(dcs.tolist()))} "
            f"-> {survivors}/2 replicas survive a dc0 outage"
        )


if __name__ == "__main__":
    main()
