"""Command-line interface: regenerate any paper artifact from a shell.

Usage (after ``pip install -e .``)::

    python -m repro compare  --servers 32 --vms 64 --seed 7
    python -m repro fig7     --runs 2
    python -m repro fig9     --runs 2 --tightness 0.7
    python -m repro fig10
    python -m repro fig11
    python -m repro table2
    python -m repro table3
    python -m repro generate --servers 40 --vms 80 --out scenario.json
    python -m repro scenario list
    python -m repro scenario run steady_churn --seed 7
    python -m repro compare  --providers 3 --prefer 'provider_cost>qos'
    python -m repro scenario run steady_churn --providers 3
    python -m repro verify   --check market --check parallel=1,2
    python -m repro verify   --fuzz 20 --seed 7
    python -m repro verify   --fuzz 10 --scenario maintenance_drain
    python -m repro serve    --port 8080 --checkpoint-dir state/
    python -m repro serve    --scenario failure_storm --port 0
    python -m repro compare  --telemetry console       # live event stream
    python -m repro fig9     --telemetry jsonl:events.jsonl

Every figure command prints the corresponding series as a text table
(sizes down the rows, algorithms across the columns).  Budgets are the
bench defaults — reduced from the paper's Table III so a figure
regenerates in seconds-to-minutes; pass ``--population/--evaluations``
to raise them.

Each command imports what it runs inside its own function, so parsing
the command line (``--help``, a rejected flag) loads no solver.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

__all__ = ["main", "build_parser"]

_INTERRUPTED_MSG = (
    "sweep interrupted — completed cells are journaled; rerun the same "
    "command (or `python -m repro resume DIR`) to continue"
)


def _factories(
    args,
    include_cp_hybrid: bool = False,
    include_portfolio: bool = False,
) -> dict[str, Callable]:
    from repro.baselines.round_robin import RoundRobinAllocator
    from repro.cp.allocator import CPAllocator
    from repro.cp.search import SearchLimits
    from repro.ea.config import NSGAConfig
    from repro.hybrid.nsga_allocators import (
        NSGA2Allocator,
        NSGA3Allocator,
        NSGA3CPAllocator,
        NSGA3TabuAllocator,
    )

    config = NSGAConfig(
        population_size=args.population,
        max_evaluations=args.evaluations,
        seed=args.seed,
        n_workers=getattr(args, "workers", 0),
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
        checkpoint_every=getattr(args, "checkpoint_every", None),
        energy_weight=getattr(args, "energy_weight", 0.0),
    )
    factories: dict[str, Callable] = {
        "round_robin": lambda: RoundRobinAllocator(),
        "constraint_programming": lambda: CPAllocator(
            optimize=False, limits=SearchLimits(max_nodes=50_000, time_limit=5.0)
        ),
        "nsga2": lambda: NSGA2Allocator(config),
        "nsga3": lambda: NSGA3Allocator(config),
        "nsga3_tabu": lambda: NSGA3TabuAllocator(config),
    }
    if include_cp_hybrid:
        factories["nsga3_cp"] = lambda: NSGA3CPAllocator(
            config, repair_limits=SearchLimits(max_nodes=500, time_limit=0.1)
        )
    if include_portfolio:
        from repro.portfolio import PortfolioAllocator

        factories["portfolio"] = lambda: PortfolioAllocator(
            config=config,
            members=getattr(args, "members", None) or "nsga3_tabu+cp+tabu",
            deadline_ms=getattr(args, "deadline_ms", None),
        )
    return factories


def _sweep_specs(sizes: list[tuple[int, int]], tightness: float) -> list:
    from repro.workloads.generator import ScenarioSpec

    return [
        ScenarioSpec(
            servers=servers,
            datacenters=2 if servers < 100 else 4,
            vms=vms,
            tightness=tightness,
        )
        for servers, vms in sizes
    ]


def _run_figure(args, sizes, metric: str, title: str) -> int:
    from repro.evaluation import ExperimentRunner, format_series_table

    runner = ExperimentRunner(
        _factories(args, include_cp_hybrid=args.include_cp_hybrid),
        runs=args.runs,
        seed=args.seed,
    )
    result = runner.run_sweep(
        _sweep_specs(sizes, args.tightness),
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
    )
    if result.interrupted:
        print(_INTERRUPTED_MSG)
        return 130
    print(format_series_table(result, metric, title=title))
    return 0


def cmd_fig7(args) -> int:
    """Run ``python -m repro fig7``."""
    return _run_figure(
        args,
        [(10, 20), (20, 40), (40, 80)],
        "execution_time",
        "Figure 7: mean execution time (s), few resources",
    )


def cmd_fig8(args) -> int:
    """Run ``python -m repro fig8``."""
    sizes = [(100, 200), (200, 400)]
    if args.full:
        sizes += [(400, 800), (800, 1600)]
    return _run_figure(
        args,
        sizes,
        "execution_time",
        "Figure 8: mean execution time (s), many resources",
    )


def cmd_fig9(args) -> int:
    """Run ``python -m repro fig9``."""
    return _run_figure(
        args,
        [(16, 32), (32, 64), (64, 128)],
        "rejection_rate",
        "Figure 9: mean rejection rate vs size",
    )


def cmd_fig10(args) -> int:
    """Run ``python -m repro fig10``."""
    return _run_figure(
        args,
        [(16, 32), (32, 64), (64, 128)],
        "violations",
        "Figure 10: mean violated constraints vs size",
    )


def cmd_fig11(args) -> int:
    """Run ``python -m repro fig11``."""
    from repro.evaluation import ExperimentRunner, format_series_table

    runner = ExperimentRunner(
        _factories(args, include_cp_hybrid=args.include_cp_hybrid),
        runs=args.runs,
        seed=args.seed,
    )
    result = runner.run_sweep(
        _sweep_specs([(16, 32), (32, 64)], args.tightness),
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
    )
    if result.interrupted:
        print(_INTERRUPTED_MSG)
        return 130
    print(
        format_series_table(
            result, "provider_cost", title="Figure 11: mean provider cost"
        )
    )
    print()
    print(
        format_series_table(
            result,
            "cost_per_request",
            title="Figure 11 (future-work metric): cost per accepted request",
        )
    )
    return 0


def cmd_table2(args) -> int:
    """Run ``python -m repro table2``."""
    from repro.evaluation import TABLE2_CRITERIA, capability_matrix, format_table

    rows = capability_matrix(
        _factories(args, include_cp_hybrid=True), seed=args.seed, runs=args.runs
    )
    headers = ["criterion", *(r.algorithm for r in rows)]
    body = [
        [criterion, *(getattr(r, criterion) for r in rows)]
        for criterion in TABLE2_CRITERIA
    ]
    print(format_table(headers, body, title="Table II (measured)"))
    return 0


def cmd_table3(args) -> int:
    """Run ``python -m repro table3``."""
    from repro.ea.config import NSGAConfig
    from repro.evaluation import format_table

    config = NSGAConfig()
    rows = [
        ["populationSize", config.population_size],
        ["Number of evaluations", config.max_evaluations],
        ["sbx.rate", config.sbx_rate],
        ["sbx.distributionIndex", config.sbx_distribution_index],
        ["pm.rate", config.pm_rate],
        ["pm.distributionIndex", config.pm_distribution_index],
    ]
    print(format_table(["parameter", "value"], rows, title="Table III (defaults)"))
    return 0


def cmd_compare(args) -> int:
    """Run ``python -m repro compare``."""
    from repro.evaluation import format_table
    from repro.workloads.generator import ScenarioGenerator, ScenarioSpec

    spec = ScenarioSpec(
        servers=args.servers,
        datacenters=2 if args.servers < 100 else 4,
        vms=args.vms,
        tightness=args.tightness,
    )
    scenario = ScenarioGenerator(spec, seed=args.seed).generate()
    factories = _factories(args, include_cp_hybrid=True, include_portfolio=True)
    if args.allocator is not None:
        if args.allocator not in factories:
            print(
                f"error: unknown allocator {args.allocator!r}; "
                f"pick from {', '.join(sorted(factories))}",
                file=sys.stderr,
            )
            return 2
        factories = {args.allocator: factories[args.allocator]}
    providers = getattr(args, "providers", 1)
    market = None
    if providers > 1:
        from repro.market import BrokeredAllocator, ProviderMarket

        market = ProviderMarket.from_infrastructure(
            scenario.infrastructure, providers
        )
    rows = []
    for label, factory in factories.items():
        if market is not None:
            brokered = BrokeredAllocator(market, factory).allocate(
                scenario.requests
            )
            outcome, route = brokered.deployed.outcome, brokered.deployed.route
        else:
            allocator = factory()
            try:
                outcome = allocator.allocate(
                    scenario.infrastructure, scenario.requests
                )
            finally:
                allocator.close()
            route = None
        row = [
            label,
            f"{outcome.elapsed:.3f}",
            f"{outcome.rejection_rate:.2f}",
            outcome.violations,
            f"{outcome.provider_cost:.1f}",
        ]
        if market is not None:
            row.append(route)
        rows.append(row)
    headers = ["algorithm", "time (s)", "rejection", "violations", "provider cost"]
    title = (
        f"Comparison on {spec.servers} servers / {spec.vms} VMs "
        f"(seed {args.seed})"
    )
    if market is not None:
        headers.append("brokered route")
        title += f", brokered across {providers} providers"
    print(format_table(headers, rows, title=title))
    return 0


def cmd_diagnose(args) -> int:
    """Run ``python -m repro diagnose``."""
    from repro.model import Request, diagnose_instance
    from repro.serialization import load_json
    from repro.workloads.generator import scenario_from_dict

    scenario = scenario_from_dict(load_json(args.scenario))
    merged, _owner = Request.concatenate(scenario.requests)
    findings = diagnose_instance(scenario.infrastructure, merged)
    print(
        f"{scenario.infrastructure.m} servers / {scenario.n_vms} VMs / "
        f"{scenario.n_requests} requests"
    )
    if not findings:
        print("no provable infeasibility found (solvers may still reject)")
        return 0
    for finding in findings:
        print(f"  [{finding.code}] {finding.message}")
    return 1


def _parse_sizes(text: str) -> tuple[tuple[int, int], ...]:
    """``"4x8,16x32"`` → ``((4, 8), (16, 32))``."""
    sizes = []
    for chunk in text.split(","):
        servers, _, vms = chunk.strip().partition("x")
        if not vms:
            raise argparse.ArgumentTypeError(
                f"size {chunk!r} must look like SERVERSxVMS, e.g. 16x32"
            )
        sizes.append((int(servers), int(vms)))
    return tuple(sizes)


def _parse_perturb(text: str) -> tuple[str, float]:
    """``"usage_cost:0.5"`` → ``("usage_cost", 0.5)`` (delta defaults 1)."""
    term, _, delta = text.partition(":")
    return term, float(delta) if delta else 1.0


def _parse_workers(text: str) -> tuple[int, ...]:
    """``"1,2,4"`` → ``(1, 2, 4)``."""
    try:
        counts = tuple(int(chunk) for chunk in text.split(",") if chunk.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"worker list {text!r} must be comma-separated integers"
        ) from None
    if not counts or any(count < 1 for count in counts):
        raise argparse.ArgumentTypeError(
            f"worker counts must be >= 1, got {text!r}"
        )
    return counts


#: The checks that take ``NAME=ARG``, with the parser of their ARG.
_CHECK_ARGS = {"parallel": _parse_workers, "service": str}


def _parse_check(text: str) -> tuple[str, object]:
    """``"parallel=1,2"`` → ``("parallel", (1, 2))``; ``"market"`` → ``("market", None)``."""
    from repro.verify import CHECKS

    name, has_arg, arg = text.partition("=")
    if name != "all" and name not in CHECKS:
        raise argparse.ArgumentTypeError(
            f"unknown check {name!r}; pick from {', '.join(CHECKS)} or 'all'"
        )
    if not has_arg:
        return name, None
    if name not in _CHECK_ARGS:
        raise argparse.ArgumentTypeError(f"check {name!r} takes no argument")
    if not arg:
        raise argparse.ArgumentTypeError(f"--check {name}= needs a value")
    return name, _CHECK_ARGS[name](arg)


def _parse_prefer(text: str):
    """Validate a ``crit>crit>...`` preference spec at parse time."""
    from repro.errors import ValidationError
    from repro.objectives.preference import parse_preference

    try:
        return parse_preference(text)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _providers_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"--providers must be >= 1, got {text!r}"
        )
    return count


def cmd_scenario(args) -> int:
    """Run ``python -m repro scenario list|run``."""
    from repro.evaluation import format_table
    from repro.workloads.scenarios import (
        compile_scenario,
        get_scenario,
        scenario_names,
    )

    if args.action == "list":
        rows = [
            [
                name,
                get_scenario(name).servers,
                get_scenario(name).traffic,
                f"{get_scenario(name).horizon:g}",
                get_scenario(name).description,
            ]
            for name in scenario_names()
        ]
        print(
            format_table(
                ["name", "servers", "traffic", "horizon", "description"],
                rows,
                title="Registered dynamic scenarios (docs/SCENARIOS.md)",
            )
        )
        return 0
    if not args.name:
        print(
            "error: `scenario run` needs a scenario name; "
            f"pick from {', '.join(scenario_names())}",
            file=sys.stderr,
        )
        return 2
    if args.name not in scenario_names():
        print(
            f"error: unknown scenario {args.name!r}; "
            f"pick from {', '.join(scenario_names())}",
            file=sys.stderr,
        )
        return 2
    factories = _factories(args, include_cp_hybrid=True, include_portfolio=True)
    if args.allocator not in factories:
        print(
            f"error: unknown allocator {args.allocator!r}; "
            f"pick from {', '.join(sorted(factories))}",
            file=sys.stderr,
        )
        return 2
    compiled = compile_scenario(args.name, seed=args.seed)
    providers = getattr(args, "providers", 1)
    if providers > 1:
        # Tag + price the estate across N providers; the merged
        # infrastructure drives every window (p == 1 is byte-identical
        # and skipped so default runs keep their ledger fingerprints).
        from repro.market import ProviderMarket

        compiled.infrastructure = ProviderMarket.from_infrastructure(
            compiled.infrastructure, providers
        ).compile(at=0.0).infrastructure
    allocator = factories[args.allocator]()
    try:
        result = compiled.run(allocator)
    finally:
        allocator.close()
    metrics = result.metrics
    print(
        format_table(
            [
                "windows",
                "time (s)",
                "rejection",
                "violations",
                "provider cost",
                "sla rate",
                "churn",
            ],
            [metrics.as_row()],
            title=(
                f"Scenario {args.name!r} x {result.algorithm} "
                f"(seed {args.seed}, {len(compiled)} events)"
            ),
        )
    )
    print(
        f"accepted {metrics.accepted} / rejected {metrics.rejected} / "
        f"displaced {metrics.displaced} decisions; "
        f"{metrics.failures} failure(s), {metrics.drains} drain(s), "
        f"{metrics.migration_moves} migration move(s)"
    )
    print(
        f"event fingerprint {compiled.event_fingerprint()}  "
        f"ledger {result.ledger_fingerprint}"
    )
    return 0


def cmd_verify(args) -> int:
    """Run ``python -m repro verify``."""
    from repro.telemetry import get_registry
    from repro.verify import CHECKS, FuzzConfig, run_fuzz

    fuzz_kwargs = {}
    if args.scenario:
        from repro.workloads.scenarios import scenario_names

        names: list[str] = []
        for entry in args.scenario:
            if entry == "all":
                names.extend(scenario_names())
            else:
                names.append(entry)
        unknown = sorted(set(names) - set(scenario_names()))
        if unknown:
            print(
                f"error: unknown scenario(s) {', '.join(unknown)}; "
                f"pick from {', '.join(scenario_names())} (or 'all')",
                file=sys.stderr,
            )
            return 2
        fuzz_kwargs["dynamic_scenarios"] = tuple(names)
    if args.allocator is not None:
        factories = _factories(
            args, include_cp_hybrid=True, include_portfolio=True
        )
        if args.allocator not in factories:
            print(
                f"error: unknown allocator {args.allocator!r}; "
                f"pick from {', '.join(sorted(factories))}",
                file=sys.stderr,
            )
            return 2
        fuzz_kwargs["allocator_factory"] = factories[args.allocator]
    config = FuzzConfig(
        scenarios=args.fuzz,
        seed=args.seed,
        sizes=args.sizes,
        walk_detours=args.walk_detours,
        perturb=args.perturb,
        **fuzz_kwargs,
    )
    report = run_fuzz(config)
    print(report.format())
    ok = report.ok
    # name -> ARG; an explicit NAME=ARG wins over the bare run `all` asks for.
    selected: dict[str, object] = {}
    for name, arg in args.check or ():
        if name == "all":
            selected.update({each: selected.get(each) for each in CHECKS})
        else:
            selected[name] = arg
    for name, arg in selected.items():
        check = CHECKS[name]
        check_report = check(seed=args.seed) if arg is None else check(arg, seed=args.seed)
        print()
        print(check_report.format())
        ok = ok and check_report.ok
    snapshot = get_registry().format_summary()
    verify_lines = [line for line in snapshot.splitlines() if "verify." in line]
    if verify_lines:
        print("\n-- verify.* telemetry --")
        print("\n".join(verify_lines))
    return 0 if ok else 1


def cmd_resume(args) -> int:
    """Run ``python -m repro resume``: replay a campaign's manifest argv."""
    from pathlib import Path

    from repro.errors import CheckpointError
    from repro.runtime.checkpoint import read_checked_json

    try:
        manifest = read_checked_json(
            Path(args.path) / "manifest.json", "campaign_manifest"
        )
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            f"{args.path!r} is not a campaign checkpoint directory — "
            "expected the manifest written by a run with --checkpoint-dir",
            file=sys.stderr,
        )
        return 1
    argv = [str(chunk) for chunk in manifest["argv"]]
    print(f"resuming campaign: python -m repro {' '.join(argv)}")
    return main(argv)


def cmd_serve(args) -> int:
    """Run ``python -m repro serve``: the always-on allocation service."""
    from repro.service import ServiceApp, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        servers=args.servers,
        datacenters=args.datacenters,
        vms=args.vms,
        tightness=args.tightness,
        seed=args.seed,
        window_length=args.window_length,
        window_every=args.window_every,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every or 50,
        max_queue=args.max_queue,
        rate=args.rate,
        burst=args.burst,
        population=args.population,
        evaluations=args.evaluations,
        workers=args.workers,
        members=args.members or "nsga3_tabu+cp+tabu",
        deadline_ms=args.deadline_ms,
        scenario=args.scenario,
        resume=args.resume,
    )
    return ServiceApp(config).run()


def cmd_generate(args) -> int:
    """Run ``python -m repro generate``."""
    from repro.serialization import save_json
    from repro.workloads.generator import ScenarioGenerator, ScenarioSpec, scenario_to_dict

    spec = ScenarioSpec(
        servers=args.servers,
        datacenters=2 if args.servers < 100 else 4,
        vms=args.vms,
        tightness=args.tightness,
    )
    scenario = ScenarioGenerator(spec, seed=args.seed).generate()
    path = save_json(scenario_to_dict(scenario), args.out)
    print(
        f"wrote {path} ({scenario.n_requests} requests, "
        f"{scenario.n_vms} VMs on {spec.servers} servers)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument grammar (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts of the IPDPSW 2017 IaaS-allocation paper.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--runs", type=int, default=1, help="scenarios per point")
    common.add_argument("--tightness", type=float, default=0.65)
    common.add_argument("--population", type=int, default=20)
    common.add_argument("--evaluations", type=int, default=600)
    common.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="worker processes for the intra-run parallel engine "
        "(0 = serial, the default; results are byte-identical either "
        "way — see docs/PARALLEL.md)",
    )
    common.add_argument(
        "--include-cp-hybrid",
        action="store_true",
        help="include the slow nsga3_cp hybrid in sweeps",
    )
    common.add_argument(
        "--energy-weight",
        type=float,
        default=0.0,
        metavar="W",
        help="fold a datacenter energy-cost term into the provider "
        "objective with this weight (0 = off, the default; "
        "docs/PORTFOLIO.md)",
    )
    common.add_argument(
        "--members",
        default=None,
        metavar="SPEC",
        help="portfolio member spec, '+'-joined (default "
        "nsga3_tabu+cp+tabu; used by --allocator portfolio and "
        "`repro serve`; docs/PORTFOLIO.md)",
    )
    common.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="wall-clock budget for portfolio solves: the race ships "
        "its best pooled incumbent when the clock expires "
        "(default none = run every member to its own budget; "
        "docs/PORTFOLIO.md)",
    )
    common.add_argument(
        "--prefer",
        type=_parse_prefer,
        default=None,
        metavar="SPEC",
        help="ceteris-paribus preference order selecting the deployed "
        "solution from any Pareto front, most important criterion "
        "first (e.g. provider_cost>qos>migration; default: the "
        "paper's ideal-point pick — docs/MARKET.md)",
    )
    common.add_argument(
        "--telemetry",
        default=None,
        metavar="SPEC",
        help="event sink: console, jsonl:PATH, or off (default; see "
        "docs/OBSERVABILITY.md)",
    )
    common.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="campaign checkpoint directory: finished sweep cells and "
        "mid-run EA state land here, and an identical rerun (or "
        "`python -m repro resume DIR`) continues instead of restarting "
        "(docs/RUNBOOK.md)",
    )
    common.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="G",
        help="EA checkpoint cadence in generations (default 10; only "
        "meaningful with --checkpoint-dir)",
    )

    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text in [
        ("fig7", cmd_fig7, "execution time, few resources"),
        ("fig8", cmd_fig8, "execution time, many resources"),
        ("fig9", cmd_fig9, "rejection rate vs size"),
        ("fig10", cmd_fig10, "violated constraints vs size"),
        ("fig11", cmd_fig11, "provider cost (+ cost per request)"),
        ("table2", cmd_table2, "measured capability matrix"),
        ("table3", cmd_table3, "NSGA settings"),
        ("compare", cmd_compare, "all algorithms on one scenario"),
        ("generate", cmd_generate, "dump a scenario to JSON"),
        ("diagnose", cmd_diagnose, "pre-flight feasibility checks on a scenario JSON"),
        ("scenario", cmd_scenario, "dynamic scenario registry: list / run (docs/SCENARIOS.md)"),
        ("verify", cmd_verify, "cross-solver conformance fuzzing (docs/VERIFY.md)"),
        ("serve", cmd_serve, "always-on allocation service (docs/SERVICE.md)"),
    ]:
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.set_defaults(func=fn)
        if name == "scenario":
            p.add_argument(
                "action",
                choices=("list", "run"),
                help="list the registry, or compile+run one scenario",
            )
            p.add_argument(
                "name",
                nargs="?",
                default=None,
                metavar="NAME",
                help="registered scenario name (required for `run`)",
            )
            p.add_argument(
                "--allocator",
                default="round_robin",
                metavar="NAME",
                help="allocator driving the scenario's windows "
                "(default round_robin)",
            )
        if name == "verify":
            p.add_argument(
                "--scenario",
                action="append",
                default=None,
                metavar="NAME",
                help="also check the dynamic metamorphic laws against "
                "this registered scenario's event stream each iteration "
                "(repeatable; 'all' = entire registry; docs/SCENARIOS.md)",
            )
            p.add_argument(
                "--fuzz",
                type=int,
                default=20,
                metavar="N",
                help="random scenarios to fuzz (default 20)",
            )
            p.add_argument(
                "--sizes",
                type=_parse_sizes,
                default=((4, 8), (8, 16), (16, 32)),
                metavar="SxV,...",
                help="(servers)x(vms) pairs cycled across scenarios "
                "(default 4x8,8x16,16x32)",
            )
            p.add_argument(
                "--walk-detours",
                type=int,
                default=2,
                help="random intermediate moves per VM in oracle walks",
            )
            p.add_argument(
                "--perturb",
                type=_parse_perturb,
                default=None,
                metavar="TERM[:DELTA]",
                help="fault-inject an objective/constraint term into the "
                "incremental path (self-test: the run must then fail)",
            )
            p.add_argument(
                "--check",
                action="append",
                type=_parse_check,
                default=None,
                metavar="NAME[=ARG]",
                help="also run a registered conformance check (repeatable; "
                "the names are listed in docs/VERIFY.md), or 'all'; "
                "parallel=W1,W2 picks the worker counts and service=DIR "
                "replays a `repro serve` checkpoint directory",
            )
            p.add_argument(
                "--allocator",
                default=None,
                metavar="NAME",
                help="route the fuzz scenarios' invariant/metamorphic "
                "layers through this allocator (e.g. portfolio) "
                "instead of round robin",
            )
        if name == "compare":
            p.add_argument(
                "--allocator",
                default=None,
                metavar="NAME",
                help="run only this allocator (e.g. portfolio) instead "
                "of the whole lineup",
            )
        if name in ("compare", "scenario"):
            p.add_argument(
                "--providers",
                type=_providers_count,
                default=1,
                metavar="N",
                help="partition the estate across N cloud providers with "
                "default price books; compare then brokers each "
                "allocator across them, scenario run prices the merged "
                "estate (default 1 = the paper's single-provider model, "
                "byte-identical — docs/MARKET.md)",
            )
        if name == "fig8":
            p.add_argument(
                "--full", action="store_true", help="include 400x800 and 800x1600"
            )
        if name in ("compare", "generate"):
            p.add_argument("--servers", type=int, default=32)
            p.add_argument("--vms", type=int, default=64)
        if name == "serve":
            p.add_argument("--host", default="127.0.0.1")
            p.add_argument(
                "--port",
                type=int,
                default=8080,
                help="listen port (0 = ephemeral; the bound port is printed)",
            )
            p.add_argument("--servers", type=int, default=16)
            p.add_argument("--datacenters", type=int, default=2)
            p.add_argument("--vms", type=int, default=32)
            p.add_argument(
                "--window-length",
                type=float,
                default=1.0,
                help="logical duration of one admission micro-batch window",
            )
            p.add_argument(
                "--window-every",
                type=float,
                default=30.0,
                metavar="SECONDS",
                help="interval between background reoptimization cycles",
            )
            p.add_argument(
                "--max-queue",
                type=int,
                default=256,
                help="admission queue bound (overflow answers 429)",
            )
            p.add_argument(
                "--rate",
                type=float,
                default=0.0,
                help="token-bucket rate limit in requests/s (0 = unlimited)",
            )
            p.add_argument("--burst", type=int, default=64)
            p.add_argument(
                "--scenario",
                default=None,
                metavar="JSON|NAME",
                help="serve this scenario JSON's infrastructure instead "
                "of generating one — or the name of a registered "
                "dynamic scenario (`repro scenario list`), which the "
                "service then plays back through live admission",
            )
            p.add_argument(
                "--resume",
                action="store_true",
                help="restore state from --checkpoint-dir's service "
                "checkpoint (docs/SERVICE.md)",
            )
        if name == "generate":
            p.add_argument("--out", default="scenario.json")
        if name == "diagnose":
            p.add_argument("scenario", help="path to a scenario JSON")
    resume_parser = sub.add_parser(
        "resume",
        help="continue a killed campaign from its checkpoint directory",
    )
    resume_parser.add_argument(
        "path", help="checkpoint directory of the interrupted campaign"
    )
    resume_parser.set_defaults(func=cmd_resume)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point (``python -m repro ...``)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    from repro import telemetry

    if getattr(args, "checkpoint_dir", None):
        # Record the invocation so `python -m repro resume DIR` can
        # re-issue it; reruns overwrite atomically with the same argv.
        from pathlib import Path

        from repro.runtime.checkpoint import atomic_write_json

        directory = Path(args.checkpoint_dir)
        directory.mkdir(parents=True, exist_ok=True)
        atomic_write_json(
            directory / "manifest.json", "campaign_manifest", {"argv": argv}
        )
    if getattr(args, "prefer", None) is not None:
        # Installed process-wide: every site that commits a single plan
        # consults it (docs/MARKET.md).
        from repro.objectives.preference import set_preference

        set_preference(args.prefer)
    sink = telemetry.configure(getattr(args, "telemetry", None))
    try:
        from repro.runtime.signals import GracefulShutdown

        with GracefulShutdown():
            return args.func(args)
    finally:
        telemetry.shutdown(sink)
        if sink is not None:
            # Sweeps attach their metrics to the SweepResult; whatever
            # was recorded outside a sweep (compare, scheduler runs) is
            # summarized here so console/jsonl users see both streams.
            summary = telemetry.get_registry().format_summary()
            if summary:
                print("\n-- telemetry (process registry) --")
                print(summary)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
