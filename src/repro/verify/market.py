"""Market-layer conformance verification.

The market layer (:mod:`repro.market`) promises two things at once:

1. **Byte-identity off the market path.**  A single-provider market is
   *exactly* the pre-market model: wrapping an estate in
   ``ProviderMarket.from_infrastructure(infra, 1)`` and compiling it
   must reproduce the original infrastructure's serialized form, its
   compiled-problem fingerprint, and — differentially — the exact
   allocation outcome any inner allocator produced before the market
   layer existed.  Likewise, selection with *no* preference order must
   be bit-for-bit the paper's ideal-point pick.
2. **Market semantics on the market path.**  On a multi-provider
   market, every ``provider:<name>`` plan confines accepted work to
   that provider's servers, the brokered front is mutually
   nondominated with the deployed plan a member, per-provider
   aggregate load closes under provider capacity, and preference
   selection is deterministic, total over any front, and invariant
   under front permutation.

``python -m repro verify --check market`` runs this from the CLI.
Provider model and preference grammar: ``docs/MARKET.md``.
"""

from __future__ import annotations

import json

import numpy as np

from repro.baselines.round_robin import RoundRobinAllocator
from repro.engine.compiled import CompiledProblem
from repro.market.broker import BrokeredAllocator
from repro.market.providers import ProviderMarket
from repro.model.placement import UNPLACED
from repro.model.request import Request
from repro.objectives.preference import parse_preference, select_index
from repro.serialization import infrastructure_to_dict
from repro.utils.pareto import dominance_matrix
from repro.verify.checks import Report
from repro.workloads.generator import ScenarioGenerator, ScenarioSpec

__all__ = ["check_market_conformance"]


def _scenario(seed: int, servers: int = 12, vms: int = 10):
    spec = ScenarioSpec(
        servers=servers,
        datacenters=3,
        vms=vms,
        max_request_size=3,
        tightness=0.5,
    )
    return ScenarioGenerator(spec, seed=seed).generate()


# ----------------------------------------------------------------------
# Check 1: single-provider byte-identity (serialization, fingerprint,
# differential allocation outcome)
# ----------------------------------------------------------------------
def _check_identity(report: Report, seed: int) -> None:
    scenario = _scenario(seed)
    infra = scenario.infrastructure
    requests = list(scenario.requests)
    case = f"identity[{seed}]"

    compiled = ProviderMarket.from_infrastructure(infra, 1).compile(at=9.0)
    report.note(
        json.dumps(infrastructure_to_dict(infra), sort_keys=True)
        == json.dumps(infrastructure_to_dict(compiled.infrastructure), sort_keys=True),
        case,
        "single_provider_serialization",
        "1-provider market compile changed the serialized estate",
    )
    merged, _ = Request.concatenate(requests)
    report.note(
        CompiledProblem.fingerprint_of(infra, merged)
        == CompiledProblem.fingerprint_of(compiled.infrastructure, merged),
        case,
        "single_provider_fingerprint",
        "1-provider market compile changed the problem fingerprint",
    )

    direct = RoundRobinAllocator().allocate(infra, list(requests))
    through = RoundRobinAllocator().allocate(
        compiled.infrastructure, list(requests)
    )
    report.note(
        np.array_equal(direct.assignment, through.assignment)
        and np.array_equal(direct.accepted, through.accepted)
        and direct.objectives.tobytes() == through.objectives.tobytes(),
        case,
        "single_provider_outcome",
        "allocation through the 1-provider market diverged from the "
        "direct allocation",
    )


# ----------------------------------------------------------------------
# Check 2: brokered-market semantics on a 3-provider estate
# ----------------------------------------------------------------------
def _check_broker(report: Report, seed: int) -> None:
    scenario = _scenario(seed + 17)
    market = ProviderMarket.from_infrastructure(scenario.infrastructure, 3)
    broker = BrokeredAllocator(market, lambda: RoundRobinAllocator())
    outcome = broker.allocate(list(scenario.requests), at=6.0)
    case = f"broker[{seed}]"

    front = outcome.front_objectives
    report.note(
        front.shape[0] < 2 or not np.any(dominance_matrix(front)),
        case,
        "brokered_front_non_domination",
        "brokered front contains a dominated plan",
    )
    report.note(
        any(plan is outcome.deployed for plan in outcome.front),
        case,
        "deployed_in_front",
        f"deployed plan {outcome.deployed.route!r} is not a front member",
    )

    infra = outcome.instance.infrastructure
    provider = infra.provider_of_server
    merged, owner = Request.concatenate(list(scenario.requests))
    for k, name in enumerate(market.names):
        plan = next(
            p for p in outcome.plans if p.route == f"provider:{name}"
        )
        genes = np.where(
            plan.outcome.accepted[owner], plan.outcome.assignment, UNPLACED
        )
        placed = genes[genes != UNPLACED]
        report.note(
            placed.size == 0 or bool(np.all(provider[placed] == k)),
            case,
            "provider_confinement",
            f"route provider:{name} placed accepted work outside "
            f"provider {k}",
        )

    repeat = broker.allocate(list(scenario.requests), at=6.0)
    report.note(
        repeat.deployed.route == outcome.deployed.route
        and repeat.deployed.objectives.tobytes()
        == outcome.deployed.objectives.tobytes(),
        case,
        "broker_determinism",
        "two identical brokered runs deployed different plans",
    )


# ----------------------------------------------------------------------
# Check 3: preference-selection consistency on fuzzed fronts
# ----------------------------------------------------------------------
def _check_preferences(report: Report, seed: int) -> None:
    rng = np.random.default_rng(seed)
    orders = [
        None,
        parse_preference("provider_cost>qos>migration"),
        parse_preference("qos>migration"),
        parse_preference("migration"),
    ]
    for trial in range(6):
        front = rng.random((int(rng.integers(1, 12)), 3)) * 100.0
        case = f"front[{trial}] ({front.shape[0]} points)"
        for preference in orders:
            label = "ideal-point" if preference is None else preference.spec
            index = select_index(front, preference)
            report.note(
                0 <= index < front.shape[0],
                case,
                "selection_total",
                f"{label}: index {index} outside the front",
            )
            report.note(
                index == select_index(front, preference),
                case,
                "selection_deterministic",
                f"{label}: two selections over the same front disagreed",
            )
            if preference is None:
                lo = front.min(axis=0)
                span = np.where(
                    front.max(axis=0) - lo > 0, front.max(axis=0) - lo, 1.0
                )
                expected = int(
                    np.argmin(
                        np.sqrt((((front - lo) / span) ** 2).sum(axis=1))
                    )
                )
                report.note(
                    index == expected,
                    case,
                    "selection_ideal_point_identity",
                    "no-preference selection drifted from the ideal-point "
                    "pick",
                )
            else:
                permutation = rng.permutation(front.shape[0])
                mirrored = select_index(front[permutation], preference)
                report.note(
                    np.array_equal(
                        front[index], front[permutation][mirrored]
                    ),
                    case,
                    "selection_permutation_invariant",
                    f"{label}: selected vector changed under permutation",
                )


def check_market_conformance(*, seed: int = 0) -> Report:
    """Prove the market layer's byte-identity and brokering promises.

    Runs the single-provider differential, the 3-provider brokered
    semantics and the preference-selection laws; see the module
    docstring for the full catalog.
    """
    report = Report("market", f"seed={seed}")
    _check_identity(report, seed)
    _check_broker(report, seed)
    _check_preferences(report, seed)
    return report
