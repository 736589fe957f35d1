"""Doc-drift guard: every `` `path.py::Name` `` reference in the prose
documents must name a definition that exists.

The documents are docs/*.md, README.md, DESIGN.md and EXPERIMENTS.md.
A path resolves against the repo root first, then against
``src/repro/`` (the convention of docs/MODEL.md and docs/ALGORITHMS.md);
``Name`` may be dotted (``Class.method``).  Definitions are read from
the syntax tree — a ``def``, ``class`` or module-level assignment —
so nothing is imported or executed.
"""

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
DOCUMENTS = sorted(
    [*(REPO_ROOT / "docs").glob("*.md")]
    + [REPO_ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
)
#: `` `path.py::Name` `` or `` `path.py::Class.method` ``.
_REFERENCE_RE = re.compile(r"`([\w/.-]+\.py)::([\w.]+)`")


def references(text: str) -> list[tuple[str, str]]:
    """The (path, dotted name) pairs ``text`` shows in backticks."""
    return _REFERENCE_RE.findall(text)


def _defined(body: list[ast.stmt], name: str) -> ast.AST | None:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == name:
                return node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                return node
    return None


def resolves(path: str, dotted: str) -> bool:
    """Whether ``path`` (repo root or ``src/repro/``) defines ``dotted``."""
    for root in (REPO_ROOT, REPO_ROOT / "src" / "repro"):
        source = root / path
        if source.is_file():
            break
    else:
        return False
    node: ast.AST | None = ast.parse(source.read_text(), filename=str(source))
    for part in dotted.split("."):
        node = _defined(getattr(node, "body", []), part)
        if node is None:
            return False
    return True


def unresolved() -> list[str]:
    """Every reference in the documents that names no definition."""
    return [
        f"{document.relative_to(REPO_ROOT)}: `{path}::{name}`"
        for document in DOCUMENTS
        for path, name in references(document.read_text())
        if not resolves(path, name)
    ]


class TestCodeReferences:
    def test_every_reference_names_a_definition(self):
        assert unresolved() == []

    def test_walk_finds_the_references(self):
        """The walk must not silently rot: the docs cite code this way
        a couple of dozen times, across several pages."""
        found = [
            (document.name, ref)
            for document in DOCUMENTS
            for ref in references(document.read_text())
        ]
        assert len(found) >= 15
        assert {"MODEL.md", "ALGORITHMS.md", "PERFORMANCE.md"} <= {doc for doc, _ in found}

    def test_guard_catches_a_stale_reference(self):
        assert resolves("allocator.py", "per_request_rejections")
        assert resolves("cp/solver.py", "CPSolver.repair_genome")
        assert resolves("benchmarks/conftest.py", "bench_environment")
        assert not resolves("cp/solver.py", "repair_genome")
        assert not resolves("sorting.py", "constrained_sort_keys")
        assert not resolves("allocator.py", "no_such_function")
