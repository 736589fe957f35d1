"""Unit tests for the conformance subsystem: the invariant catalog, the
differential oracle (a clean replay and faults injected into its LP and
CP backends), the shared report and the ``repro verify`` CLI entry
point."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import RoundRobinAllocator
from repro.cli import build_parser, main
from repro.engine import CompiledProblem
from repro.model import Request
from repro.model.placement import UNPLACED
from repro.telemetry import MetricsRegistry, use_registry
from repro.types import PlacementRule
from repro.verify import (
    CHECKS,
    CheckContext,
    DifferentialOracle,
    FuzzConfig,
    Report,
    check_service_conformance,
    run_fuzz,
    run_invariants,
)
from repro.verify.invariants import _CHECKERS
from repro.workloads import ScenarioGenerator, ScenarioSpec
from tests.unit.test_docs_metric_drift import documented_metric_names

VERIFY_DOC = Path(__file__).resolve().parents[2] / "docs" / "VERIFY.md"


@pytest.fixture(scope="module")
def scenario():
    spec = ScenarioSpec(servers=5, datacenters=2, vms=10, tightness=0.8)
    return ScenarioGenerator(spec, seed=17).generate()


@pytest.fixture(scope="module")
def merged(scenario):
    request, _ = Request.concatenate(scenario.requests)
    return request


@pytest.fixture()
def reference(scenario, merged):
    """The oracle's reference evaluator, assignment constraint on."""
    compiled = CompiledProblem.compile(scenario.infrastructure, merged)
    return compiled.evaluator(include_assignment_constraint=True)


# ----------------------------------------------------------------------
# Invariant catalog
# ----------------------------------------------------------------------
def test_invariant_catalog_contains_documented_checkers():
    """VERIFY.md's catalog table documents every registered invariant,
    and nothing else."""
    documented = documented_metric_names(VERIFY_DOC.read_text(), header="invariant")
    assert sorted(documented) == sorted(_CHECKERS)
    assert len(documented) == len(set(documented))


def test_invariants_pass_on_real_outcome(scenario):
    """A real outcome satisfies the catalog, and only the checkers that
    compared something are listed: a one-provider outcome with no front
    skips four, its bare genome four more."""
    outcome = RoundRobinAllocator().allocate(
        scenario.infrastructure, scenario.requests
    )
    skipped = {
        "pareto_front_non_domination",
        "preference_selection_consistency",
        "provider_capacity_closure",
        "brokered_front_non_domination",
    }
    bare_skipped = skipped | {
        "capacity_respected",
        "group_closure",
        "accepted_closure",
        "objective_finiteness",
    }
    for ctx, absent in [
        (
            CheckContext(
                infrastructure=scenario.infrastructure,
                requests=scenario.requests,
                outcome=outcome,
            ),
            skipped,
        ),
        (
            CheckContext(
                infrastructure=scenario.infrastructure,
                requests=scenario.requests,
                assignment=outcome.assignment,
            ),
            bare_skipped,
        ),
    ]:
        report = run_invariants(ctx)
        assert report.ok, report.format()
        assert report.checked == tuple(
            name for name in _CHECKERS if name not in absent
        )


def test_invariants_flag_out_of_range_gene(scenario, merged):
    assignment = np.zeros(merged.n, dtype=np.int64)
    assignment[0] = scenario.infrastructure.m + 3
    ctx = CheckContext(
        infrastructure=scenario.infrastructure,
        requests=scenario.requests,
        assignment=assignment,
    )
    report = run_invariants(ctx, names=["assignment_well_formed"])
    assert not report.ok
    assert report.violations[0].invariant == "assignment_well_formed"


def test_invariants_flag_corrupted_accepted_mask(scenario):
    outcome = RoundRobinAllocator().allocate(
        scenario.infrastructure, scenario.requests
    )
    corrupted = outcome.accepted.copy()
    corrupted[0] = not corrupted[0]
    object.__setattr__(outcome, "accepted", corrupted)
    ctx = CheckContext(
        infrastructure=scenario.infrastructure,
        requests=scenario.requests,
        outcome=outcome,
    )
    report = run_invariants(ctx, names=["accepted_closure"])
    assert not report.ok


def test_service_check_runs_all_three_placement_invariants():
    """The replayed residents are committed work, so the capacity and
    group checks compare instead of skipping as for a bare genome."""
    report = check_service_conformance()
    assert report.ok, report.format()
    assert report.stats["invariants_checked"] == 3


def test_service_check_flags_an_overloaded_resident(monkeypatch):
    """One replayed resident's demand inflated past any server: live and
    replayed residents, ledger and clock still agree, so only the
    capacity invariant can catch it."""
    from repro.service import state as state_module

    replay = state_module.replay_admission_log

    def corrupted_replay(*args, **kwargs):
        replayed = replay(*args, **kwargs)
        corrupted = sorted(replayed.residents())[0]
        request_for = replayed.scheduler.request_for

        def inflated(key):
            request = request_for(key)
            if key == corrupted:
                request = dataclasses.replace(request, demand=request.demand * 1e6)
            return request

        monkeypatch.setattr(replayed.scheduler, "request_for", inflated)
        return replayed

    monkeypatch.setattr(state_module, "replay_admission_log", corrupted_replay)
    report = check_service_conformance()
    assert [m.field for m in report.mismatches] == ["invariant[capacity_respected]"]


def test_invariants_flag_dominated_front(scenario):
    front = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    ctx = CheckContext(
        infrastructure=scenario.infrastructure, front_objectives=front
    )
    report = run_invariants(ctx, names=["pareto_front_non_domination"])
    assert not report.ok


def test_invariants_flag_non_finite_objectives(scenario):
    ctx = CheckContext(
        infrastructure=scenario.infrastructure,
        objectives=np.array([1.0, np.inf, 0.0]),
    )
    report = run_invariants(ctx, names=["objective_finiteness"])
    assert not report.ok


# ----------------------------------------------------------------------
# Differential oracle: clean replay + fault injection self-test
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def feasible(scenario, merged):
    """The CP optimum: a complete placement the constraint set accepts.
    One default-budget search serves the whole module, so the placement
    is read-only."""
    from repro.cp import CPSolver

    solution = CPSolver(CompiledProblem(scenario.infrastructure, merged)).optimize()
    assert solution.found and solution.proved
    placement = np.array(solution.assignment, dtype=np.int64)
    placement.setflags(write=False)
    return placement


def _corrupt_ilp(monkeypatch, **changes):
    """Make every ILP the oracle builds differ by ``changes``."""
    from repro.lp.model import ILPModel

    build = ILPModel.build.__func__

    def corrupted(cls, *args, **kwargs):
        model = build(cls, *args, **kwargs)
        return dataclasses.replace(
            model, **{name: change(getattr(model, name)) for name, change in changes.items()}
        )

    monkeypatch.setattr(ILPModel, "build", classmethod(corrupted))


def _corrupt_cp(monkeypatch, **changes):
    """Make every CP optimum the oracle asks for differ by ``changes``."""
    from repro.cp.solver import CPSolver

    optimize = CPSolver.optimize

    def corrupted(self):
        solution = optimize(self)
        return dataclasses.replace(
            solution,
            **{name: change(getattr(solution, name)) for name, change in changes.items()},
        )

    monkeypatch.setattr(CPSolver, "optimize", corrupted)


def test_verify_returns_clean_structured_report(scenario, merged, reference, feasible):
    """A feasible complete placement replayed through both backends: a
    clean ``oracle`` report naming the instance size and the backends
    consulted, with the LP's three comparisons (encoding rows, ILP
    objective, relaxation bound) and the CP's feasibility check (its
    cost bound joins only when the budgeted search proves its optimum)."""
    report = DifferentialOracle(reference).replay(feasible)
    assert report.ok, report.format()
    assert report.check == "oracle"
    assert report.subject == f"{scenario.infrastructure.m}x{merged.n}"
    assert report.stats["backends"] == "lp,cp"
    assert report.comparisons >= 4
    assert report.format().startswith(f"oracle [5x10]: ok — {report.comparisons} comparisons")


def test_oracle_counts_a_cp_search_that_ends_unproved(scenario, merged, reference):
    """The CP check searches under a node budget only.  On this 5x10
    instance 20,000 nodes prove no optimum (the solver's default
    200,000 do), so the cost bound compares nothing for a feasible
    placement and the report counts the unproved search."""
    from repro.cp import CPSolver

    placement = CPSolver(CompiledProblem(scenario.infrastructure, merged)).find_feasible()
    assert placement.found
    report = DifferentialOracle(reference).replay(placement.assignment, lp=False)
    assert report.ok, report.format()
    assert report.stats["backends"] == "cp"
    assert report.stats["cp_unproved"] == 1
    assert report.comparisons == 1  # the placement CP returned is feasible


def test_oracle_clean_replay(scenario, merged, reference):
    rng = np.random.default_rng(3)
    target = rng.integers(0, scenario.infrastructure.m, size=merged.n)
    report = DifferentialOracle(reference).replay(target, cp=False)
    assert report.ok, report.format()
    assert report.check == "oracle"
    assert report.stats["backends"] == "lp"
    assert report.comparisons > 0


def _broken(term, infrastructure, request):
    """A corruption of a feasible placement that breaks ``term``."""

    def corrupt(assignment):
        broken = np.array(assignment)
        if term == "capacity":
            broken[:] = 0  # every VM on one server
        elif term == "unplaced":
            broken[0] = UNPLACED
        else:  # the request's first placement group
            group = request.groups[0]
            first, second = group.members[:2]
            datacenter = infrastructure.server_datacenter
            if group.rule is PlacementRule.SAME_SERVER:
                broken[first] = (broken[first] + 1) % infrastructure.m
            elif group.rule is PlacementRule.SAME_DATACENTER:
                elsewhere = datacenter != datacenter[broken[first]]
                broken[first] = np.flatnonzero(elsewhere)[0]
            else:
                broken[second] = broken[first]
        return broken

    return corrupt


@pytest.mark.parametrize("term", ["capacity", "group", "unplaced", "usage_cost"])
def test_oracle_detects_injected_fault_per_term(
    scenario, merged, reference, feasible, term, monkeypatch
):
    """A fault injected into one backend's side must surface as a
    mismatch naming that backend and the broken term — the oracle's own
    false-negative self-test.  The CP backend is handed an optimum that
    breaks capacity, a placement group or the assignment constraint;
    the LP backend an ILP objective 0.25 off Eq. 22 per variable."""
    if term == "usage_cost":
        _corrupt_ilp(monkeypatch, objective=lambda objective: objective + 0.25)
        report = DifferentialOracle(reference).replay(feasible, cp=False)
        assert report.mismatches
        assert {(m.where, m.field) for m in report.mismatches} == {("lp", "usage_cost")}
        message = report.mismatches[0].message
        assert "ILP objective disagrees with Eq. 22" in message
        shifted = reference.usage_cost.value(feasible) + 0.25 * merged.n
        assert f"candidate={shifted:.12g}" in message
    else:
        corrupt = _broken(term, scenario.infrastructure, merged)
        _corrupt_cp(monkeypatch, assignment=corrupt)
        report = DifferentialOracle(reference).replay(feasible, lp=False)
        assert [(m.where, m.field) for m in report.mismatches] == [("cp", "feasibility")]
        assert f"{term}=" in report.mismatches[0].message
    assert "FAILED" in report.format()


def test_oracle_flags_an_encoding_row_a_feasible_placement_breaks(
    reference, feasible, monkeypatch
):
    """An ILP whose inequality right-hand sides all dropped to zero
    rejects the feasible placement: the LP backend names its encoding."""
    _corrupt_ilp(monkeypatch, b_ub=lambda rhs: np.minimum(rhs, 0.0))
    report = DifferentialOracle(reference).replay(feasible, cp=False)
    assert ("lp", "feasibility") in [(m.where, m.field) for m in report.mismatches]


def test_oracle_flags_a_proved_cp_optimum_above_a_feasible_cost(
    reference, feasible, monkeypatch
):
    """A proved CP optimum costlier than a placement we hold breaks the
    bound: the CP backend names the cost."""
    _corrupt_cp(
        monkeypatch,
        cost=lambda cost: cost + 1.0,
        stats=lambda stats: dataclasses.replace(stats, exhausted=True),
    )
    report = DifferentialOracle(reference).replay(feasible, lp=False)
    assert [(m.where, m.field) for m in report.mismatches] == [("cp", "usage_cost")]
    assert "costlier than a feasible placement" in report.mismatches[0].message


# ----------------------------------------------------------------------
# The --check registry's shared report
# ----------------------------------------------------------------------
def test_report_compare_flags_byte_drift():
    report = Report("demo", "unit")
    report.compare(
        "layer",
        {
            "same": (np.arange(6), np.arange(6)),
            "drifted": (np.arange(6), np.array([0, 1, 2, 9, 4, 9])),
            "narrowed": (np.arange(6), np.arange(6, dtype=np.int32)),
        },
    )
    assert report.comparisons == 3
    assert [(m.where, m.field, m.message) for m in report.mismatches] == [
        ("layer", "drifted", "2 of 6 entries differ"),
        ("layer", "narrowed", "dtype int32 != expected int64"),
    ]


def test_report_compare_flags_a_shape_mismatch_with_equal_bytes():
    expected = np.arange(6).reshape(2, 3)
    actual = np.arange(6).reshape(3, 2)
    assert expected.tobytes() == actual.tobytes()
    report = Report("demo", "unit")
    report.compare("layer", {"tile": (expected, actual)})
    assert [m.message for m in report.mismatches] == [
        "shape (3, 2) != expected (2, 3)"
    ]


def test_report_ok_exactly_when_no_mismatches_and_format_lists_them():
    report = Report("demo", "6x12 seed=0", stats={"cases": 2})
    report.note(True, "a", "x", "unused")
    assert report.ok
    assert report.format() == (
        "demo [6x12 seed=0]: ok — 1 comparisons, 0 mismatches, cases=2"
    )
    report.note(False, "a", "y", "y drifted")
    report.flag("b", "resumed_from", "never resumed")
    assert not report.ok
    assert report.comparisons == 2
    assert report.format().splitlines() == [
        "demo [6x12 seed=0]: FAILED — 2 comparisons, 2 mismatches, cases=2",
        "  [a] y: y drifted",
        "  [b] resumed_from: never resumed",
    ]


def test_check_registry_names():
    assert list(CHECKS) == [
        "kernels", "market", "anytime", "resume", "parallel", "service"
    ]


@pytest.mark.parametrize(
    "flags,expected",
    [
        (["--check", "all"], [("all", None)]),
        (["--check", "parallel=1,2"], [("parallel", (1, 2))]),
        (["--check", "service=state/"], [("service", "state/")]),
        (
            ["--check", "kernels", "--check", "resume"],
            [("kernels", None), ("resume", None)],
        ),
        ([], None),
    ],
)
def test_parser_accepts_registered_checks(flags, expected):
    assert build_parser().parse_args(["verify", *flags]).check == expected


@pytest.mark.parametrize(
    "value",
    ["nope", "kernels=x", "all=1", "parallel=", "parallel=0", "parallel=a,b"],
)
def test_parser_rejects_bad_checks(value, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["verify", "--check", value])
    capsys.readouterr()


def test_parser_has_one_check_option():
    """``--check NAME`` replaced the per-contract flags; the only other
    options spelled ``--check...`` are the common ``--checkpoint-*``."""
    verify = build_parser()._subparsers._group_actions[0].choices["verify"]
    flags = [flag for action in verify._actions for flag in action.option_strings]
    checks = [f for f in flags if f.startswith("--check") and not f.startswith("--checkpoint")]
    assert checks == ["--check"]


# ----------------------------------------------------------------------
# Fuzz harness + CLI
# ----------------------------------------------------------------------
def test_run_fuzz_small_campaign_clean():
    config = FuzzConfig(scenarios=2, seed=123, sizes=((4, 8),))
    report = run_fuzz(config)
    assert report.ok, report.format()
    assert report.check == "fuzz"
    assert report.stats["scenarios"] == 2
    assert report.stats["oracle"] > 0
    assert report.stats["invariants"] > 0
    assert report.stats["metamorphic"] > 0
    # The campaign's comparisons are its layers' comparisons, folded in.
    assert report.comparisons == (
        report.stats["oracle"] + report.stats["metamorphic"]
    )
    assert report.stats["cp_unproved"] >= 0


def test_cli_verify_exits_zero_on_clean_run(capsys):
    code = main(
        ["verify", "--fuzz", "1", "--seed", "7", "--sizes", "4x8"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fuzz [seed=7]: ok" in out
    assert "verify.comparisons{check=oracle}" in out


def test_cli_verify_exits_nonzero_on_injected_fault(capsys, monkeypatch):
    """A fault in the oracle's LP side fails the campaign: exit 1, a
    FAILED report line and the mismatch prefixed with its scenario."""
    _corrupt_ilp(monkeypatch, objective=lambda objective: objective + 0.25)
    code = main(["verify", "--fuzz", "1", "--seed", "7", "--sizes", "4x8"])
    assert code == 1
    out = capsys.readouterr().out
    assert "fuzz [seed=7]: FAILED" in out
    assert "(seed=7, 4x8) oracle, lp] usage_cost:" in out


def test_cli_verify_runs_a_registered_check(capsys):
    """``--fuzz 0`` runs the named check and no fuzz campaign."""
    with use_registry(MetricsRegistry()):
        code = main(["verify", "--fuzz", "0", "--check", "market"])
    assert code == 0
    out = capsys.readouterr().out
    assert "market [seed=0]: ok" in out
    assert "verify.comparisons{check=market}" in out
    assert "fuzz [" not in out
    assert "check=fuzz" not in out


def test_cli_verify_with_nothing_to_run_is_a_usage_error(capsys):
    assert main(["verify", "--fuzz", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == "error: nothing to verify"
    assert captured.out == ""


def test_cli_verify_negative_fuzz_count_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--fuzz", "-1"])
    assert exit_info.value.code == 2
    assert "error: argument --fuzz: --fuzz must be >= 0, got '-1'" in capsys.readouterr().err
