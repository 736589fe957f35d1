"""Doc-drift guard: every ``python -m repro …`` command the docs show
must parse against the real argparse tree.

Docs rot silently: a renamed flag or retired subcommand leaves README
snippets that fail for anyone who pastes them.  This test extracts
every fenced command from README.md and docs/*.md and runs it through
:func:`repro.cli.build_parser` (parse only — nothing is executed), so
renaming ``--checkpoint-dir`` without updating the docs fails CI.
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
