"""Unit tests for the conformance subsystem: structured incremental
parity reports (including the corrupted-compilation failure branch),
the invariant catalog, the differential oracle's fault injection, the
``--check`` registry's shared report and the ``repro verify`` CLI entry
point."""

import numpy as np
import pytest

from repro.baselines import RoundRobinAllocator
from repro.cli import build_parser, main
from repro.engine import CompiledProblem, ParityError
from repro.engine.incremental import CONSTRAINT_TERMS, OBJECTIVE_TERMS
from repro.model import Request
from repro.verify import (
    CHECKS,
    CheckContext,
    DifferentialOracle,
    FuzzConfig,
    Report,
    invariant_names,
    run_fuzz,
    run_invariants,
)
from repro.workloads import ScenarioGenerator, ScenarioSpec


@pytest.fixture()
def scenario():
    spec = ScenarioSpec(servers=5, datacenters=2, vms=10, tightness=0.8)
    return ScenarioGenerator(spec, seed=17).generate()


@pytest.fixture()
def merged(scenario):
    request, _ = Request.concatenate(scenario.requests)
    return request


# ----------------------------------------------------------------------
# IncrementalEvaluator.verify(): the structured parity report
# ----------------------------------------------------------------------
def test_verify_returns_clean_structured_report(scenario, merged):
    compiled = CompiledProblem.compile(scenario.infrastructure, merged)
    rng = np.random.default_rng(0)
    genome = rng.integers(0, scenario.infrastructure.m, size=merged.n)
    state = compiled.incremental(genome, include_assignment=True)

    report = state.verify()
    assert report.ok
    assert not report.mismatches
    terms = tuple(d.term for d in report.deltas)
    assert terms == CONSTRAINT_TERMS + OBJECTIVE_TERMS
    assert {d.kind for d in report.deltas} == {"constraint", "objective"}
    # Per-term lookup and formatting are part of the diagnosis surface.
    assert report["usage_cost"].kind == "objective"
    assert report["capacity"].kind == "constraint"
    assert "usage_cost" in report.format()


def test_verify_flags_corrupted_compilation(scenario, merged):
    """A compilation whose cost table was tampered with must produce a
    per-term mismatch on exactly the affected objective, and the strict
    path must raise a ParityError carrying the report."""
    compiled = CompiledProblem.compile(scenario.infrastructure, merged)
    # Corrupt the compiled per-resource cost rate: the incremental
    # totals are accumulated from this array, while the reference
    # evaluator recomputes the term from the infrastructure itself.
    compiled.per_resource_rate = compiled.per_resource_rate + 0.25

    rng = np.random.default_rng(1)
    genome = rng.integers(0, scenario.infrastructure.m, size=merged.n)
    state = compiled.incremental(genome, include_assignment=True)

    report = state.verify(strict=False)
    assert not report.ok
    bad = {d.term for d in report.mismatches}
    assert bad == {"usage_cost"}
    delta = report["usage_cost"]
    assert delta.incremental > delta.reference
    assert np.isclose(delta.delta, 0.25 * merged.n)
    assert "usage_cost" in report.format()

    with pytest.raises(ParityError) as err:
        state.verify()
    assert err.value.report is not None
    assert not err.value.report.ok
    assert "usage_cost" in str(err.value)


def test_verify_flags_drifted_constraint_total(scenario, merged):
    """Constraint terms compare exactly: a one-off drift in the tracked
    capacity total must be reported as a constraint-kind mismatch."""
    compiled = CompiledProblem.compile(scenario.infrastructure, merged)
    rng = np.random.default_rng(2)
    genome = rng.integers(0, scenario.infrastructure.m, size=merged.n)
    state = compiled.incremental(genome, include_assignment=True)
    state._cap_total += 1  # simulate a delta-bookkeeping bug

    report = state.verify(strict=False)
    assert not report.ok
    assert {d.term for d in report.mismatches} == {"capacity"}
    assert report["capacity"].kind == "constraint"


# ----------------------------------------------------------------------
# Invariant catalog
# ----------------------------------------------------------------------
def test_invariant_catalog_contains_documented_checkers():
    names = invariant_names()
    assert {
        "assignment_well_formed",
        "capacity_respected",
        "group_closure",
        "accepted_closure",
        "objective_finiteness",
        "pareto_front_non_domination",
    } <= set(names)


def test_invariants_pass_on_real_outcome(scenario):
    outcome = RoundRobinAllocator().allocate(
        scenario.infrastructure, scenario.requests
    )
    ctx = CheckContext(
        infrastructure=scenario.infrastructure,
        requests=scenario.requests,
        outcome=outcome,
    )
    report = run_invariants(ctx)
    assert report.ok, report.format()
    assert "accepted_closure" in report.checked


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
def test_oracle_clean_replay(scenario, merged):
    rng = np.random.default_rng(3)
    target = rng.integers(0, scenario.infrastructure.m, size=merged.n)
    oracle = DifferentialOracle(scenario.infrastructure, merged)
    report = oracle.replay(target, seed=rng, detours=2, cp=False)
    assert report.ok, report.format()
    assert "incremental" in report.backends
    assert report.checks > 0


@pytest.mark.parametrize("term", CONSTRAINT_TERMS + OBJECTIVE_TERMS)
def test_oracle_detects_injected_fault_per_term(scenario, merged, term):
    """Fault injection on any single term must surface as a mismatch
    naming that term — the oracle's own false-negative self-test."""
    rng = np.random.default_rng(4)
    target = rng.integers(0, scenario.infrastructure.m, size=merged.n)
    oracle = DifferentialOracle(
        scenario.infrastructure, merged, perturb=(term, 0.5)
    )
    report = oracle.replay(target, seed=rng, detours=1, lp=False, cp=False)
    assert not report.ok
    assert any(
        d.term == term for mism in report.mismatches for d in mism.deltas
    )
    assert term in report.format()


def test_oracle_rejects_unknown_perturb_term(scenario, merged):
    with pytest.raises(Exception):
        DifferentialOracle(
            scenario.infrastructure, merged, perturb=("no_such_term", 1.0)
        )


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
    assert report.scenarios_run == 2
    assert report.oracle_checks > 0
    assert report.invariant_checks > 0
    assert report.law_checks > 0


def test_cli_verify_exits_zero_on_clean_run(capsys):
    code = main(
        ["verify", "--fuzz", "1", "--seed", "7", "--sizes", "4x8"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "0 failure(s)" in out
    assert "verify.fuzz.scenarios" in out


def test_cli_verify_exits_nonzero_on_injected_fault(capsys):
    code = main(
        [
            "verify",
            "--fuzz",
            "1",
            "--seed",
            "7",
            "--sizes",
            "4x8",
            "--perturb",
            "downtime:0.25",
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "downtime" in out


def test_cli_verify_runs_a_registered_check(capsys):
    code = main(["verify", "--fuzz", "0", "--check", "market"])
    assert code == 0
    out = capsys.readouterr().out
    assert "market [seed=0]: ok" in out
    assert "verify.comparisons{check=market}" in out
