"""Every module under ``src/repro`` runs for some entry point.

The entry points are the ``python -m repro`` commands (``repro.cli``
and ``repro.__main__``) and every script under ``benchmarks/``,
``examples/`` and ``perfbench/``; ``tests/`` is not one.  A module is
reached when an entry point, or a module it reaches, names it through

* an ``import`` or ``from ... import``, at any depth, except under
  ``if TYPE_CHECKING:``;
* a string constant naming it, ``"repro.x.y"`` or ``"repro.x.y:attr"``
  (as in ``perfbench/tracing.py``'s span targets);
* ``pkg.name`` on a name bound to a repro package.

``from pkg import Name`` and ``pkg.Name`` reach the module that defines
``Name``, following the package's own ``from ... import`` re-exports
and its lazy ``_EXPORTS`` table.  Importing a module runs the
``__init__`` of each enclosing package, and an ``__init__`` reaches a
submodule only through names its own code uses: a name that appears
only in an import line and ``__all__`` is a re-export and reaches
nothing, and so do the strings of an ``_EXPORTS`` table until a name
resolves through it.  Everything is read from the syntax tree, so no
module is executed.
"""

import ast
import re
from functools import cache
from pathlib import Path

from tests.unit.test_layers import REPO_ROOT, SRC, modules

ENTRY_MODULES = ("repro.cli", "repro.__main__")
ENTRY_DIRS = ("benchmarks", "examples", "perfbench")

#: ``"repro.x.y"`` or ``"repro.x.y:attr.sub"``.
_MODULE_STRING = re.compile(r"(repro(?:\.\w+)*)(?::(\w+)[\w.]*)?")


def source(module: str) -> Path | None:
    """The file that defines ``module``, if it is one of the package's."""
    path = SRC.joinpath(*module.split("."))
    if (path / "__init__.py").is_file():
        return path / "__init__.py"
    if path.with_suffix(".py").is_file():
        return path.with_suffix(".py")
    return None


@cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_exports_table(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "_EXPORTS" for target in node.targets
    )


def _lazy_exports(path: Path) -> dict[str, str]:
    """The literal entries of a package's ``_EXPORTS`` table."""
    for node in _tree(path).body:
        if _is_exports_table(node) and isinstance(node.value, ast.Dict):
            return {
                key.value: value.value
                for key, value in zip(node.value.keys, node.value.values)
                if isinstance(key, ast.Constant) and isinstance(value, ast.Constant)
            }
    return {}


def _walk(node: ast.AST):
    """Every node under ``node``, skipping ``if TYPE_CHECKING:`` bodies
    and ``_EXPORTS`` tables."""
    yield node
    for child in ast.iter_child_nodes(node):
        if _is_exports_table(child):
            continue
        if isinstance(child, ast.If) and ast.unparse(child.test).endswith("TYPE_CHECKING"):
            for statement in child.orelse:
                yield from _walk(statement)
            continue
        yield from _walk(child)


def _base(node: ast.ImportFrom, module: str | None, is_package: bool) -> str | None:
    """The absolute module a ``from ... import`` reads from."""
    if not node.level:
        return node.module
    if module is None:
        return None
    parts = module.split(".")
    parts = parts[: len(parts) - node.level + is_package]
    return ".".join(parts + ([node.module] if node.module else []))


@cache
def resolve(module: str, name: str) -> str:
    """The module that defines ``module.name``."""
    submodule = f"{module}.{name}"
    if source(submodule) is not None:
        return submodule
    path = source(module)
    if path is None or path.name != "__init__.py":
        return module
    for node in _tree(path).body:
        if isinstance(node, ast.ImportFrom):
            base = _base(node, module, True)
            for alias in node.names:
                if (alias.asname or alias.name) == name and base and source(base):
                    return resolve(base, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname == name and source(alias.name) is not None:
                    return alias.name
    defining = _lazy_exports(path).get(name)
    return resolve(defining, name) if defining else module


def _bound_module(module: str, name: str) -> str | None:
    """``module.name`` if it is a module, else ``None``."""
    submodule = f"{module}.{name}"
    return submodule if source(submodule) is not None else None


def file_edges(path: Path, module: str | None = None) -> set[str]:
    """The repro modules the code of one file reaches directly."""
    is_package = path.name == "__init__.py"
    imports: list[tuple[str, str]] = []  # (bound name, module reached)
    bindings: dict[str, str] = {}  # name -> the repro module bound to it
    used: set[str] = set()
    found: set[str] = set()
    nodes = list(_walk(_tree(path)))
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if source(alias.name) is None:
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imports.append((bound, alias.name))
                bindings[bound] = alias.name if alias.asname else bound
        elif isinstance(node, ast.ImportFrom):
            base = _base(node, module, is_package)
            if base is None or source(base) is None:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name
                imports.append((bound, resolve(base, alias.name)))
                submodule = _bound_module(base, alias.name)
                if submodule:
                    bindings[bound] = submodule
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = _MODULE_STRING.fullmatch(node.value)
            if match and source(match[1]) is not None:
                found.add(resolve(match[1], match[2]) if match[2] else match[1])

    def module_of(expression: ast.expr) -> str | None:
        if isinstance(expression, ast.Name):
            return bindings.get(expression.id)
        if isinstance(expression, ast.Attribute):
            owner = module_of(expression.value)
            return _bound_module(owner, expression.attr) if owner else None
        return None

    for node in nodes:
        if isinstance(node, ast.Attribute):
            owner = module_of(node.value)
            if owner is not None and source(owner).name == "__init__.py":
                found.add(resolve(owner, node.attr))
    # An __init__ reaches only what its own code uses; its re-exports
    # reach nothing until a name resolves through them.
    found.update(target for bound, target in imports if not is_package or bound in used)
    return found


def edges(module: str) -> set[str]:
    """What importing ``module`` runs: its enclosing packages and what
    its own code reaches."""
    parts = module.split(".")
    parents = {".".join(parts[:end]) for end in range(1, len(parts))}
    return parents | file_edges(source(module), module)


def entry_files() -> list[Path]:
    return [
        path
        for directory in ENTRY_DIRS
        for path in sorted((REPO_ROOT / directory).rglob("*.py"))
    ]


def reached() -> set[str]:
    """Every module some entry point reaches."""
    todo = list(ENTRY_MODULES)
    for path in entry_files():
        todo.extend(file_edges(path))
    seen: set[str] = set()
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(edges(module))
    return seen


def test_every_module_is_reached_from_an_entry_point():
    # The package root is not listed: every import runs it.
    paths = dict(modules())
    unreached = sorted(set(paths) - reached())
    lines = {module: paths[module].read_text().count("\n") for module in unreached}
    listed = ", ".join(f"{module} ({lines[module]} lines)" for module in unreached)
    assert not unreached, (
        f"{len(unreached)} modules, {sum(lines.values())} lines, run for no "
        f"entry point: {listed}"
    )


def test_names_resolve_to_their_defining_module():
    """Through the root's lazy table, a package's re-exports, and the
    engine's lazy table."""
    assert resolve("repro", "NSGA3TabuAllocator") == "repro.hybrid.nsga_allocators"
    assert resolve("repro", "telemetry") == "repro.telemetry"
    assert resolve("repro.verify", "CHECKS") == "repro.verify.checks"
    assert resolve("repro.engine", "ParallelEngine") == "repro.engine.parallel"
    assert resolve("repro.telemetry", "configure") == "repro.telemetry.config"


def test_an_init_reaches_only_what_its_code_uses():
    """``repro.verify`` and the root only re-export, while the kernel
    registry instantiates both kernels."""
    assert file_edges(source("repro.verify"), "repro.verify") == set()
    assert file_edges(source("repro"), "repro") == set()
    assert {
        "repro.engine.kernels.base",
        "repro.engine.kernels.numpy_backend",
    } <= file_edges(source("repro.engine.kernels"), "repro.engine.kernels")


def test_strings_and_package_attributes_are_edges():
    """``perfbench/tracing.py`` names its span targets as strings, and
    the CLI calls ``telemetry.configure`` on the package it imports."""
    traced = file_edges(REPO_ROOT / "perfbench" / "tracing.py")
    assert {"repro.ea.nsga_base", "repro.tabu.repair", "repro.allocator"} <= traced
    assert "repro.telemetry.config" in file_edges(source("repro.cli"), "repro.cli")


def test_type_checking_imports_are_not_edges(tmp_path):
    script = tmp_path / "script.py"
    script.write_text(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.lp.solve import solve_ilp\n"
        "else:\n"
        "    from repro.cp.solver import CPSolver\n"
    )
    assert file_edges(script) == {"repro.cp.solver"}
