"""The layer map of docs/ARCHITECTURE.md as a checked contract.

Every module under ``src/repro`` has a rank, and no module imports a
``repro`` module of a higher rank — at module level, inside a function
or under ``if TYPE_CHECKING:`` alike.  Imports within one rank are
allowed; an import cycle inside a rank shows when each module is
imported first in a fresh interpreter, which CI does.  Imports are read
from the syntax tree, so no module under test is executed.
"""

import ast
import re
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

#: Lowest rank first.  A package's rank covers its submodules unless a
#: submodule is listed itself (``engine.kernels`` sits below ``engine``).
LAYERS = (
    ("errors", "types", "utils", "telemetry", "runtime"),  # substrate
    ("model", "topology", "serialization"),  # model
    ("constraints", "objectives", "engine.kernels"),  # semantics
    ("engine",),
    ("allocator",),
    ("ea", "tabu", "cp", "lp", "hybrid", "baselines"),  # solvers
    ("portfolio", "market"),
    ("scheduler", "workloads"),  # dynamics
    ("service",),
    ("evaluation", "verify", "analysis"),  # harness
    ("cli", "__main__"),  # interface
)
RANK = {f"repro.{name}": rank for rank, names in enumerate(LAYERS) for name in names}


def rank_of(module: str) -> int | None:
    """The rank of the longest listed prefix of ``module``."""
    parts = module.split(".")
    for end in range(len(parts), 1, -1):
        rank = RANK.get(".".join(parts[:end]))
        if rank is not None:
            return rank
    return None


def _is_module(dotted: str) -> bool:
    path = SRC.joinpath(*dotted.split("."))
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def _imported(node: ast.AST) -> set[str]:
    """The modules one import statement loads."""
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if not isinstance(node, ast.ImportFrom) or node.level or not node.module:
        return set()
    if node.module == "repro":
        # The package root resolves each public name to its module.
        return {repro._EXPORTS.get(alias.name, f"repro.{alias.name}") for alias in node.names}
    submodules = {f"{node.module}.{alias.name}" for alias in node.names}
    return {name if _is_module(name) else node.module for name in submodules}


def modules() -> list[tuple[str, Path]]:
    """Every module under ``src/repro`` but the package root."""
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        if len(parts) > 1:
            found.append((".".join(parts), path))
    return found


def upward_imports() -> list[str]:
    """``importer:line -> imported`` for each import of a higher rank."""
    found = []
    for module, path in modules():
        rank = rank_of(module)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            for target in sorted(_imported(node)):
                if target.split(".")[0] != "repro":
                    continue
                target_rank = rank_of(target)
                if target_rank is not None and target_rank > rank:
                    found.append(
                        f"{module}:{node.lineno} -> {target} "
                        f"(rank {target_rank + 1} above {rank + 1})"
                    )
    return found


def test_every_module_has_a_rank():
    assert [module for module, _ in modules() if rank_of(module) is None] == []


def test_no_module_imports_a_higher_rank():
    assert upward_imports() == []


def test_architecture_map_shows_the_same_ranks():
    """The bands of the map in docs/ARCHITECTURE.md, top band first,
    name exactly the packages of each rank."""
    text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
    block = text.split("## Layer map", 1)[1].split("```", 2)[1]
    bands = [
        tuple(sorted(set(re.findall(r"repro\.([\w.]+\w)", band))))
        for band in re.split(r"^├.*┤$", block, flags=re.MULTILINE)
    ]
    assert bands[::-1] == [tuple(sorted(names)) for names in LAYERS]
