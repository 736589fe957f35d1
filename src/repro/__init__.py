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

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured comparison.
"""

from repro import service, telemetry, verify
from repro.allocator import Allocator, AnytimeRun, BatchOutcome
from repro.baselines import (
    BestFitAllocator,
    FirstFitAllocator,
    RandomAllocator,
    RoundRobinAllocator,
    WorstFitAllocator,
)
from repro.cp import CPAllocator, CPSolver, SearchLimits
from repro.ea import NSGA2, NSGA3, NSGAConfig
from repro.engine import (
    CompiledProblem,
    IncrementalEvaluator,
    MoveScore,
    ParallelEngine,
    ProblemCache,
)
from repro.hybrid import (
    NSGA2Allocator,
    NSGA3Allocator,
    NSGA3CPAllocator,
    NSGA3TabuAllocator,
)
from repro.lp import solve_ilp
from repro.model import (
    AttributeSchema,
    Datacenter,
    Infrastructure,
    Placement,
    PlacementGroup,
    PlatformState,
    Request,
    Server,
    VirtualResource,
)
from repro.objectives import EnergyCost, PopulationEvaluator
from repro.portfolio import IncumbentPool, PortfolioAllocator
from repro.runtime import (
    CheckpointManager,
    GracefulShutdown,
    RunCheckpoint,
    shutdown_requested,
)
from repro.scheduler import TimeWindowScheduler
from repro.tabu import TabuRepair, TabuSearch
from repro.topology import FabricSpec, SpineLeafFabric
from repro.types import AlgorithmKind, ConstraintHandling, PlacementRule
from repro.workloads import Scenario, ScenarioGenerator, ScenarioSpec

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
    "IncrementalEvaluator",
    "MoveScore",
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
