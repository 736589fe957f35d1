"""Doc-drift guard: every ``python -m repro …`` command the docs and
CI show must parse against the real argparse tree.

Docs rot silently: a renamed flag or retired subcommand leaves README
snippets that fail for anyone who pastes them.  This test extracts
every fenced command from README.md and docs/*.md, and every command in
the ``run:`` steps of .github/workflows/ci.yml, and runs it through
:func:`repro.cli.build_parser` (parse only — nothing is executed), so
renaming ``--checkpoint-dir`` without updating the docs fails CI.
Each command also rejects the shared options its code does not read.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Fence info-strings whose contents are shell commands worth checking.
_SHELL_FENCES = {"bash", "sh", "shell", "console", ""}

_FENCE_RE = re.compile(r"^```(\S*)\s*$")


def _doc_files() -> list[Path]:
    files = [REPO_ROOT / "README.md"]
    files += sorted((REPO_ROOT / "docs").glob("*.md"))
    return [path for path in files if path.exists()]


def _shell_blocks(text: str):
    """Yield the lines of each shell-flavoured fenced code block."""
    inside = False
    shell = False
    block: list[str] = []
    for line in text.splitlines():
        match = _FENCE_RE.match(line.strip())
        if match:
            if inside:
                if shell:
                    yield block
                inside = False
                block = []
            else:
                inside = True
                shell = match.group(1).lower() in _SHELL_FENCES
            continue
        if inside and shell:
            block.append(line)


def _join_continuations(lines: list[str]) -> list[str]:
    joined: list[str] = []
    buffer = ""
    for line in lines:
        stripped = line.strip()
        if stripped.endswith("\\"):
            buffer += stripped[:-1] + " "
            continue
        joined.append(buffer + stripped)
        buffer = ""
    if buffer:
        joined.append(buffer.strip())
    return joined


def documented_commands() -> list[tuple[str, str]]:
    """All ``python -m repro …`` commands found in the docs, as
    (source-file:line-agnostic label, command) pairs."""
    commands: list[tuple[str, str]] = []
    for path in _doc_files():
        for block in _shell_blocks(path.read_text()):
            for command in _join_continuations(block):
                if command.startswith("python -m repro"):
                    commands.append((path.name, command))
    return commands


_COMMANDS = documented_commands()

_CI_FILE = REPO_ROOT / ".github" / "workflows" / "ci.yml"
_RUN_RE = re.compile(r"^(\s*)(?:- )?run:\s*(.*)$")
#: A shell redirection and its target: ``2> "$FILE"``, ``>> log``, ``2>&1``.
_REDIRECT_RE = re.compile(r"\s\d*(?:>>?|<)(?:&\d+|\s*(?:\"[^\"]*\"|'[^']*'|[^\s)]+))")


def _run_scripts(text: str) -> list[list[str]]:
    """The lines of every ``run:`` step, inline or ``|`` block."""
    scripts: list[list[str]] = []
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        match = _RUN_RE.match(lines[index])
        index += 1
        if not match:
            continue
        indent, value = len(match.group(1)), match.group(2).strip()
        if value not in ("|", ">"):
            scripts.append([value])
            continue
        block: list[str] = []
        while index < len(lines) and (
            not lines[index].strip()
            or len(lines[index]) - len(lines[index].lstrip()) > indent
        ):
            block.append(lines[index])
            index += 1
        scripts.append(block)
    return scripts


def ci_commands() -> list[str]:
    """Every ``python -m repro …`` command in CI's ``run:`` steps.

    YAML comments are skipped, ``\\`` continuations joined,
    ``${{ … }}`` expressions replaced by a literal, and each command is
    cut out of its ``$(…)`` wrapper, redirections and any following
    shell operator."""
    commands: list[str] = []
    for script in _run_scripts(_CI_FILE.read_text()):
        lines = [line for line in script if not line.strip().startswith("#")]
        for line in _join_continuations(lines):
            line = re.sub(r"\$\{\{[^}]*\}\}", "1", line)
            start = line.find("python -m repro")
            if start < 0:
                continue
            lexer = shlex.shlex(
                _REDIRECT_RE.sub("", line[start:]), posix=True, punctuation_chars=True
            )
            tokens: list[str] = []
            for token in lexer:
                if all(char in "();<>|&" for char in token):
                    break
                tokens.append(token)
            commands.append(shlex.join(tokens))
    return commands


_CI_COMMANDS = ci_commands()


def _parse(command: str):
    """Parse a documented command against the real CLI tree."""
    tokens = shlex.split(command, comments=True)
    # Drop the "python -m repro" prefix; argparse sees the rest.
    return build_parser().parse_args(tokens[3:])


class TestDocsMatchCli:
    def test_docs_actually_contain_commands(self):
        """The extractor itself must not silently rot: the docs carry
        at least a dozen runnable commands today."""
        assert len(_COMMANDS) >= 10, _COMMANDS

    @pytest.mark.parametrize(
        "source,command", _COMMANDS, ids=[f"{s}:{c}" for s, c in _COMMANDS]
    )
    def test_documented_command_parses(self, source, command):
        try:
            self_args = _parse(command)
        except SystemExit:
            pytest.fail(
                f"{source} documents a command the CLI rejects: {command!r}"
            )
        assert self_args.func is not None

    def test_ci_actually_contains_commands(self):
        """The CI extractor must not rot either: the workflow runs at
        least twelve repro commands today."""
        assert len(_CI_COMMANDS) >= 12, _CI_COMMANDS

    @pytest.mark.parametrize("command", _CI_COMMANDS, ids=_CI_COMMANDS)
    def test_ci_command_parses(self, command):
        try:
            args = _parse(command)
        except SystemExit:
            pytest.fail(f"ci.yml runs a command the CLI rejects: {command!r}")
        assert args.func is not None

    def test_ci_extractor_unwraps_shell(self):
        """The extractor's shell handling on CI's own idioms."""
        assert _CI_COMMANDS.count(
            "python -m repro scenario run failure_storm --seed 7 "
            "--allocator nsga3_tabu --workers 2 --telemetry console"
        ) == 1
        assert "python -m repro verify --fuzz 50 --seed 1" in _CI_COMMANDS
        assert any("--prefer 'qos>provider_cost>migration'" in c for c in _CI_COMMANDS)
        assert not any("#" in c or "$" in c or "2>" in c for c in _CI_COMMANDS)

    def test_market_docs_are_covered(self):
        """docs/MARKET.md ships runnable brokering commands; the glob in
        :func:`_doc_files` must keep picking them up."""
        market_commands = [c for s, c in _COMMANDS if s == "MARKET.md"]
        assert len(market_commands) >= 3, market_commands
        assert any("--providers" in c for c in market_commands)
        assert any("--prefer" in c for c in market_commands)

    def test_guard_catches_invented_flag(self, capsys):
        """Sanity check on the guard itself: a flag that does not exist
        must fail parsing (otherwise this whole test proves nothing)."""
        with pytest.raises(SystemExit):
            _parse("python -m repro fig9 --no-such-flag-ever")
        capsys.readouterr()  # swallow argparse's usage message

    def test_guard_catches_invented_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            _parse("python -m repro frobnicate")
        capsys.readouterr()


class TestMarketFlags:
    """The new brokering flags must parse — and reject garbage — exactly
    as docs/MARKET.md promises."""

    def test_providers_and_prefer_parse(self):
        args = _parse(
            "python -m repro compare --providers 3 --prefer 'qos>provider_cost'"
        )
        assert args.providers == 3
        assert args.prefer is not None
        # Named criteria lead; omitted ones pad the tail as tie-breakers.
        assert args.prefer.columns == (1, 0, 2)

    def test_scenario_run_accepts_providers(self):
        args = _parse(
            "python -m repro scenario run steady_churn --providers 2 --seed 7"
        )
        assert args.providers == 2

    def test_prefer_default_is_ideal_point(self):
        args = _parse("python -m repro compare")
        assert args.prefer is None
        assert args.providers == 1

    def test_malformed_prefer_rejected(self, capsys):
        for spec in ("", "qos>>cost", "qos>karma", "cost>provider_cost"):
            with pytest.raises(SystemExit):
                _parse(f"python -m repro compare --prefer {spec!r}")
            capsys.readouterr()

    def test_nonpositive_providers_rejected(self, capsys):
        for count in ("0", "-1", "two"):
            with pytest.raises(SystemExit):
                _parse(f"python -m repro compare --providers {count}")
            capsys.readouterr()

    def test_verify_check_market_parses(self):
        args = _parse("python -m repro verify --check market")
        assert args.check == [("market", None)]


class TestChecksAreDocumented:
    def test_every_check_has_a_row_in_verify_md(self):
        """docs/VERIFY.md's Checks table names every registered check."""
        from repro.verify import CHECKS

        page = (REPO_ROOT / "docs" / "VERIFY.md").read_text()
        missing = [name for name in CHECKS if f"| `{name}` |" not in page]
        assert not missing, f"checks missing from docs/VERIFY.md: {missing}"


#: The options several commands share, with a value each parses.
_SHARED = {
    "--seed": "1",
    "--runs": "1",
    "--tightness": "0.7",
    "--population": "8",
    "--evaluations": "16",
    "--workers": "0",
    "--include-cp-hybrid": None,
    "--energy-weight": "0.5",
    "--members": "nsga3_tabu+cp",
    "--deadline-ms": "100",
    "--prefer": "qos>provider_cost",
    "--telemetry": "off",
    "--checkpoint-dir": "ckpt",
    "--checkpoint-every": "5",
}
_FIGURE = (
    "--seed", "--runs", "--tightness", "--population", "--evaluations",
    "--workers", "--include-cp-hybrid", "--energy-weight", "--prefer",
    "--telemetry", "--checkpoint-dir", "--checkpoint-every",
)
_SOLVER = (
    "--seed", "--population", "--evaluations", "--workers", "--energy-weight",
    "--members", "--deadline-ms", "--prefer", "--telemetry",
    "--checkpoint-dir", "--checkpoint-every",
)
#: The shared options each command's code reads.
_READS = {
    **{f"fig{n}": _FIGURE for n in range(7, 12)},
    "table2": tuple(o for o in _FIGURE if o not in ("--tightness", "--include-cp-hybrid")),
    "table3": ("--telemetry",),
    "diagnose": ("--telemetry",),
    "generate": ("--seed", "--tightness", "--telemetry"),
    "compare": (*_SOLVER, "--tightness"),
    "scenario": _SOLVER,
    "verify": _SOLVER,
    "serve": (
        *(o for o in _SOLVER if o != "--energy-weight"),
        "--tightness",
    ),
}
#: Positional arguments a command needs before its options.
_POSITIONAL = {"scenario": ["list"], "diagnose": ["scenario.json"]}


def _argv(command: str, option: str) -> list[str]:
    value = _SHARED[option]
    return [command, *_POSITIONAL.get(command, []), option, *([value] if value else [])]


_DROPPED = [(c, o) for c, reads in _READS.items() for o in _SHARED if o not in reads]


class TestCommandsTakeOnlyTheirOptions:
    def test_each_command_takes_the_shared_options_it_reads(self):
        commands = build_parser()._subparsers._group_actions[0].choices
        taken = {
            name: {o for o in _SHARED if o in command._option_string_actions}
            for name, command in commands.items()
            if name != "resume"
        }
        assert taken == {name: set(reads) for name, reads in _READS.items()}
        assert sum(map(len, taken.values())) == 120
        assert len(_DROPPED) == 62

    @pytest.mark.parametrize(
        "command,option", _DROPPED, ids=[f"{c} {o}" for c, o in _DROPPED]
    )
    def test_an_ignored_option_is_a_usage_error(self, command, option, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(_argv(command, option))
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
