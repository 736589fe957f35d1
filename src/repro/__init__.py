"""repro — Consumer-and-provider-oriented IaaS resource allocation.

A from-scratch reproduction of Ecarot, Zeghlache & Brandily,
"Consumer-and-Provider-oriented efficient IaaS resource allocation"
(IEEE IPDPSW 2017): the matrix allocation model of Section III, the
NSGA-III + tabu-search hybrid of Section IV, every baseline it is
compared against, and the evaluation harness regenerating the paper's
tables and figures.

Quickstart::

    from repro import (
        Infrastructure, Request, PlacementGroup, PlacementRule,
        NSGA3TabuAllocator,
    )

    infra = Infrastructure.homogeneous(
        datacenters=2, servers_per_datacenter=20,
        capacity=[32, 128, 2000],
    )
    request = Request(...)          # demands + affinity rules
    outcome = NSGA3TabuAllocator().allocate(infra, [request])
    print(outcome.assignment, outcome.rejection_rate)

Every public name is imported on first use (PEP 562), so ``import
repro`` loads no subpackage: scipy, networkx and asyncio load only
with ``repro.lp``, ``repro.topology`` and ``repro.service``.

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured comparison.
"""

import importlib
import threading

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core interfaces
    "Allocator",
    "AnytimeRun",
    "BatchOutcome",
    # model
    "AttributeSchema",
    "Server",
    "Datacenter",
    "VirtualResource",
    "Infrastructure",
    "Request",
    "PlacementGroup",
    "Placement",
    "PlatformState",
    "PlacementRule",
    "AlgorithmKind",
    "ConstraintHandling",
    # algorithms
    "RoundRobinAllocator",
    "FirstFitAllocator",
    "BestFitAllocator",
    "WorstFitAllocator",
    "RandomAllocator",
    "CPAllocator",
    "CPSolver",
    "SearchLimits",
    "NSGA2",
    "NSGA3",
    "NSGAConfig",
    "NSGA2Allocator",
    "NSGA3Allocator",
    "NSGA3TabuAllocator",
    "NSGA3CPAllocator",
    "TabuRepair",
    "TabuSearch",
    "solve_ilp",
    "PopulationEvaluator",
    "EnergyCost",
    # anytime portfolio
    "PortfolioAllocator",
    "IncumbentPool",
    # engine
    "CompiledProblem",
    "ProblemCache",
    "ParallelEngine",
    # substrates
    "FabricSpec",
    "SpineLeafFabric",
    "TimeWindowScheduler",
    # workloads
    "Scenario",
    "ScenarioGenerator",
    "ScenarioSpec",
    # runtime (checkpoint/resume, graceful shutdown)
    "CheckpointManager",
    "RunCheckpoint",
    "GracefulShutdown",
    "shutdown_requested",
    # observability
    "telemetry",
    # conformance
    "verify",
    # the always-on allocation control plane
    "service",
]

#: Every public name with the module that defines it, and every
#: subpackage or module with itself: ``__getattr__`` imports the module
#: on first access.
_EXPORTS = {
    "Allocator": "repro.allocator",
    "AnytimeRun": "repro.allocator",
    "BatchOutcome": "repro.allocator",
    "AttributeSchema": "repro.model.attributes",
    "Server": "repro.model.resources",
    "Datacenter": "repro.model.resources",
    "VirtualResource": "repro.model.resources",
    "Infrastructure": "repro.model.infrastructure",
    "Request": "repro.model.request",
    "PlacementGroup": "repro.model.request",
    "Placement": "repro.model.placement",
    "PlatformState": "repro.model.state",
    "PlacementRule": "repro.types",
    "AlgorithmKind": "repro.types",
    "ConstraintHandling": "repro.types",
    "RoundRobinAllocator": "repro.baselines.round_robin",
    "FirstFitAllocator": "repro.baselines.fits",
    "BestFitAllocator": "repro.baselines.fits",
    "WorstFitAllocator": "repro.baselines.fits",
    "RandomAllocator": "repro.baselines.fits",
    "CPAllocator": "repro.cp.allocator",
    "CPSolver": "repro.cp.solver",
    "SearchLimits": "repro.cp.search",
    "NSGA2": "repro.ea.nsga2",
    "NSGA3": "repro.ea.nsga3",
    "NSGAConfig": "repro.ea.config",
    "NSGA2Allocator": "repro.hybrid.nsga_allocators",
    "NSGA3Allocator": "repro.hybrid.nsga_allocators",
    "NSGA3TabuAllocator": "repro.hybrid.nsga_allocators",
    "NSGA3CPAllocator": "repro.hybrid.nsga_allocators",
    "TabuRepair": "repro.tabu.repair",
    "TabuSearch": "repro.tabu.search",
    "solve_ilp": "repro.lp.solve",
    "PopulationEvaluator": "repro.objectives.evaluator",
    "EnergyCost": "repro.objectives.energy",
    "PortfolioAllocator": "repro.portfolio.racer",
    "IncumbentPool": "repro.portfolio.incumbents",
    "CompiledProblem": "repro.engine.compiled",
    "ProblemCache": "repro.engine.cache",
    "ParallelEngine": "repro.engine.parallel",
    "FabricSpec": "repro.topology.spine_leaf",
    "SpineLeafFabric": "repro.topology.spine_leaf",
    "TimeWindowScheduler": "repro.scheduler.window",
    "Scenario": "repro.workloads.generator",
    "ScenarioGenerator": "repro.workloads.generator",
    "ScenarioSpec": "repro.workloads.generator",
    "CheckpointManager": "repro.runtime.checkpoint",
    "RunCheckpoint": "repro.runtime.checkpoint",
    "GracefulShutdown": "repro.runtime.signals",
    "shutdown_requested": "repro.runtime.signals",
    **{
        name: f"repro.{name}"
        for name in (
            "allocator", "baselines", "cli", "constraints", "cp",
            "ea", "engine", "errors", "evaluation", "hybrid", "lp", "market",
            "model", "objectives", "portfolio", "runtime", "scheduler",
            "serialization", "service", "tabu", "telemetry", "topology",
            "types", "utils", "verify", "workloads",
        )
    },
}

_RESOLVING = threading.RLock()


def __getattr__(name: str):
    """Import the module behind ``name`` and cache the value here."""
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # One resolution at a time: a thread importing a package while
    # another imports one of its submodules can each be handed the
    # other's module half-initialized.
    with _RESOLVING:
        module = importlib.import_module(module_name)
    value = module if module_name == f"{__name__}.{name}" else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """The names already bound here and every name ``__getattr__`` resolves."""
    return sorted({*globals(), *_EXPORTS})
