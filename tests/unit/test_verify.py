"""Unit tests for the conformance subsystem: the incremental parity
comparison (including the corrupted-compilation failure branch), the
invariant catalog, the differential oracle's fault injection, the
shared report and the ``repro verify`` CLI entry point."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import RoundRobinAllocator
from repro.cli import build_parser, main
from repro.engine import CompiledProblem, IncrementalEvaluator
from repro.engine.incremental import CONSTRAINT_TERMS, OBJECTIVE_TERMS
from repro.model import Request
from repro.verify import (
    CHECKS,
    CheckContext,
    DifferentialOracle,
    FuzzConfig,
    Report,
    check_parity,
    check_service_conformance,
    invariant_names,
    run_fuzz,
    run_invariants,
)
from repro.workloads import ScenarioGenerator, ScenarioSpec
from tests.unit.test_docs_metric_drift import documented_metric_names

VERIFY_DOC = Path(__file__).resolve().parents[2] / "docs" / "VERIFY.md"


@pytest.fixture()
def scenario():
    spec = ScenarioSpec(servers=5, datacenters=2, vms=10, tightness=0.8)
    return ScenarioGenerator(spec, seed=17).generate()


@pytest.fixture()
def merged(scenario):
    request, _ = Request.concatenate(scenario.requests)
    return request


@pytest.fixture()
def reference(scenario, merged):
    """The oracle's reference evaluator, assignment constraint on."""
    compiled = CompiledProblem.compile(scenario.infrastructure, merged)
    return compiled.evaluator(include_assignment_constraint=True)


# ----------------------------------------------------------------------
# check_parity: the one incremental-vs-reference comparison
# ----------------------------------------------------------------------
def test_verify_returns_clean_structured_report(scenario, merged):
    compiled = CompiledProblem.compile(scenario.infrastructure, merged)
    rng = np.random.default_rng(0)
    genome = rng.integers(0, scenario.infrastructure.m, size=merged.n)
    evaluator = compiled.evaluator(include_assignment_constraint=True)
    state = IncrementalEvaluator(compiled, evaluator, genome)

    report = check_parity(state)
    assert report.ok, report.format()
    assert report.check == "parity"
    assert report.comparisons == len(CONSTRAINT_TERMS + OBJECTIVE_TERMS)
    # A state that prices energy has its energy total compared too.
    priced = IncrementalEvaluator(
        compiled,
        compiled.evaluator(include_assignment_constraint=True, energy_weight=0.5),
        genome,
    )
    report = check_parity(priced)
    assert report.ok, report.format()
    assert report.comparisons == len(CONSTRAINT_TERMS + OBJECTIVE_TERMS) + 1


def test_verify_flags_corrupted_compilation(scenario, merged):
    """A compilation whose cost table was tampered with must produce a
    per-term mismatch on exactly the affected objective, naming both
    values and their drift."""
    compiled = CompiledProblem.compile(scenario.infrastructure, merged)
    # Corrupt the compiled per-resource cost rate: the incremental
    # totals are accumulated from this array, while the reference
    # evaluator recomputes the term from the infrastructure itself.
    compiled.per_resource_rate = compiled.per_resource_rate + 0.25

    rng = np.random.default_rng(1)
    genome = rng.integers(0, scenario.infrastructure.m, size=merged.n)
    evaluator = compiled.evaluator(include_assignment_constraint=True)
    state = IncrementalEvaluator(compiled, evaluator, genome)

    report = check_parity(state)
    assert not report.ok
    assert [m.field for m in report.mismatches] == ["usage_cost"]
    message = report.mismatches[0].message
    assert "reference=" in message and "candidate=" in message
    assert f"delta={0.25 * merged.n:+.3g}" in message
    assert "FAILED" in report.format()


@pytest.mark.parametrize(
    "term,attribute,energy_weight",
    [("capacity", "_cap_total", 0.0), ("energy", "_energy_total", 0.5)],
    ids=["capacity", "energy"],
)
def test_verify_flags_one_drifted_total(
    scenario, merged, term, attribute, energy_weight
):
    """A one-off drift in one tracked total (a delta-bookkeeping bug)
    gives exactly one mismatch, on its own term: capacity compares
    exactly, and energy is compared whenever the state prices it."""
    compiled = CompiledProblem.compile(scenario.infrastructure, merged)
    rng = np.random.default_rng(2)
    genome = rng.integers(0, scenario.infrastructure.m, size=merged.n)
    evaluator = compiled.evaluator(
        include_assignment_constraint=True, energy_weight=energy_weight
    )
    state = IncrementalEvaluator(compiled, evaluator, genome)
    assert check_parity(state).ok
    setattr(state, attribute, getattr(state, attribute) + 1)

    report = check_parity(state)
    assert [m.field for m in report.mismatches] == [term]
    assert report.mismatches[0].where == "incremental"


# ----------------------------------------------------------------------
# Invariant catalog
# ----------------------------------------------------------------------
def test_invariant_catalog_contains_documented_checkers():
    """VERIFY.md's catalog table documents every registered invariant,
    and nothing else."""
    documented = documented_metric_names(VERIFY_DOC.read_text(), header="invariant")
    assert sorted(documented) == sorted(invariant_names())
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
            name for name in invariant_names() if name not in absent
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
def test_oracle_clean_replay(scenario, merged, reference):
    rng = np.random.default_rng(3)
    target = rng.integers(0, scenario.infrastructure.m, size=merged.n)
    oracle = DifferentialOracle(reference)
    report = oracle.replay(target, seed=rng, detours=2, cp=False)
    assert report.ok, report.format()
    assert report.check == "oracle"
    assert "incremental" in report.stats["backends"].split(",")
    assert report.comparisons > 0


@pytest.mark.parametrize("term", CONSTRAINT_TERMS + OBJECTIVE_TERMS)
def test_oracle_detects_injected_fault_per_term(scenario, merged, reference, term):
    """Fault injection on any single term must surface as a mismatch
    naming that term — the oracle's own false-negative self-test."""
    rng = np.random.default_rng(4)
    target = rng.integers(0, scenario.infrastructure.m, size=merged.n)
    oracle = DifferentialOracle(reference, perturb=(term, 0.5))
    report = oracle.replay(target, seed=rng, detours=1, lp=False, cp=False)
    assert not report.ok
    assert [(m.where, m.field) for m in report.mismatches] == [
        ("incremental at walk end", term)
    ]
    assert term in report.format()


def test_oracle_rejects_unknown_perturb_term(reference):
    with pytest.raises(Exception):
        DifferentialOracle(reference, perturb=("no_such_term", 1.0))


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


def test_cli_verify_exits_zero_on_clean_run(capsys):
    code = main(
        ["verify", "--fuzz", "1", "--seed", "7", "--sizes", "4x8"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fuzz [seed=7]: ok" in out
    assert "verify.comparisons{check=oracle}" in out


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
    assert "fuzz [seed=7]: FAILED" in out
    assert "(seed=7, 4x8) oracle, incremental at walk end] downtime:" in out


def test_cli_verify_runs_a_registered_check(capsys):
    code = main(["verify", "--fuzz", "0", "--check", "market"])
    assert code == 0
    out = capsys.readouterr().out
    assert "market [seed=0]: ok" in out
    assert "verify.comparisons{check=market}" in out
