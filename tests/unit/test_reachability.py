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

The same holds for the symbols inside a reached module: each top-level
function, class and constant, and each method of a top-level class,
must be used by name outside its own lines, in a reached module or an
entry file (``unused_symbols`` says what counts).
"""

import ast
import re
import textwrap
from dataclasses import dataclass
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


def _assigns(node: ast.AST, *names: str) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id in names for target in node.targets
    )


def _is_exports_table(node: ast.AST) -> bool:
    return _assigns(node, "_EXPORTS")


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
    and the ``_EXPORTS`` and ``__all__`` tables."""
    yield node
    for child in ast.iter_child_nodes(node):
        if _assigns(child, "_EXPORTS", "__all__"):
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


#: Decorators that only change how a definition binds.  Any other
#: decorator, such as ``@register_invariant(...)``, is itself the use.
_PLAIN_DECORATORS = frozenset(
    {
        "property",
        "classmethod",
        "staticmethod",
        "contextmanager",
        "abstractmethod",
        "cache",
        "dataclass",
    }
)
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass(frozen=True)
class Symbol:
    path: Path
    module: str
    qualname: str
    first: int  # the first decorator's line, if any
    last: int
    kept: bool  # a dunder, or registered by a decorator

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]

    @property
    def lines(self) -> int:
        return self.last - self.first + 1

    def __str__(self) -> str:
        return f"{self.module}::{self.qualname} ({self.lines} lines)"


def _decorator_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _symbol(path: Path, module: str, node: ast.stmt, qualname: str) -> Symbol:
    decorators = getattr(node, "decorator_list", [])
    name = qualname.rpartition(".")[2]
    kept = (name.startswith("__") and name.endswith("__")) or any(
        _decorator_name(decorator) not in _PLAIN_DECORATORS for decorator in decorators
    )
    first = min([node.lineno] + [decorator.lineno for decorator in decorators])
    return Symbol(path, module, qualname, first, node.end_lineno, kept)


def symbols(path: Path, module: str) -> list[Symbol]:
    """The top-level functions, classes and plain-name assignments of one
    module (``__all__`` and ``_EXPORTS`` excepted), and the methods of
    its top-level classes."""
    found = []
    for node in _tree(path).body:
        if isinstance(node, _DEFINITIONS):
            found.append(_symbol(path, module, node, node.name))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    _symbol(path, module, child, f"{node.name}.{child.name}")
                    for child in node.body
                    if isinstance(child, _DEFINITIONS[:2])
                )
            continue
        if isinstance(node, ast.Assign):
            targets = node.targets
        else:
            targets = [node.target] if isinstance(node, ast.AnnAssign) else []
        found.extend(
            _symbol(path, module, node, target.id)
            for target in targets
            if isinstance(target, ast.Name) and target.id not in ("__all__", "_EXPORTS")
        )
    return found


def occurrences(path: Path) -> list[tuple[str, int]]:
    """``(name, line)`` for each use of a name in one file: a loaded
    name, an attribute, a ``from ... import`` name (not in a package
    ``__init__``, whose re-exports use nothing) and each identifier in a
    string that is not a docstring."""
    tree = _tree(path)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, *_DEFINITIONS))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    found = []
    for node in _walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            found.extend((alias.name, node.lineno) for alias in node.names)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            found.extend((word, node.lineno) for word in _IDENTIFIER.findall(node.value))
    return found


def unused_symbols(files: dict[Path, str | None]) -> list[Symbol]:
    """The symbols of ``files`` no file uses.

    ``files`` maps each file to its module name, or to ``None`` for an
    entry file, whose own definitions are not checked.  A name used
    inside an unused symbol is no use, so this iterates until no more
    symbols fall.
    """
    defined = [
        symbol for path, module in files.items() if module for symbol in symbols(path, module)
    ]
    # Each use with the symbols around it.
    uses: dict[str, list[tuple[Path, int, list[Symbol]]]] = {}
    for path in files:
        around = [symbol for symbol in defined if symbol.path == path]
        for name, line in occurrences(path):
            enclosing = [symbol for symbol in around if symbol.first <= line <= symbol.last]
            uses.setdefault(name, []).append((path, line, enclosing))

    def used(symbol: Symbol, dead: set[Symbol]) -> bool:
        return any(
            (path != symbol.path or not symbol.first <= line <= symbol.last)
            and dead.isdisjoint(enclosing)
            for path, line, enclosing in uses.get(symbol.name, ())
        )

    dead: set[Symbol] = set()
    while True:
        fallen = {symbol for symbol in defined if not symbol.kept and not used(symbol, dead)}
        if fallen == dead:
            return sorted(dead, key=lambda symbol: (symbol.module, symbol.first))
        dead = fallen


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


def test_every_symbol_is_used_from_an_entry_point():
    files: dict[Path, str | None] = {source(module): module for module in reached()}
    files.update(dict.fromkeys(entry_files()))
    unused = unused_symbols(files)
    listed = ", ".join(map(str, unused))
    assert not unused, (
        f"{len(unused)} symbols, {sum(symbol.lines for symbol in unused)} lines, used by "
        f"no entry point: {listed}"
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


def _unused_in(tmp_path, module_code: str, entry_code: str) -> list[str]:
    """The unused symbols of a one-module tree with one entry script."""
    module = tmp_path / "mod.py"
    module.write_text(textwrap.dedent(module_code))
    entry = tmp_path / "main.py"
    entry.write_text(textwrap.dedent(entry_code))
    return [symbol.qualname for symbol in unused_symbols({module: "mod", entry: None})]


def test_a_registration_decorator_keeps_a_definition(tmp_path):
    module = """
        CHECKS = {}

        def register(name):
            def add(function):
                CHECKS[name] = function
                return function
            return add

        @register("a")
        def check_a(): ...

        @staticmethod
        def check_b(): ...
    """
    assert _unused_in(tmp_path, module, "from mod import CHECKS\n") == ["check_b"]


def test_a_docstring_mention_is_no_use(tmp_path):
    module = """
        \"\"\"Its entry point is main, which helper serves.\"\"\"

        def helper(): ...

        def main():
            \"\"\"Would call helper.\"\"\"
    """
    assert _unused_in(tmp_path, module, "from mod import main\nmain()\n") == ["helper"]


def test_a_getattr_string_is_a_use(tmp_path):
    module = """
        class Job:
            def run(self): ...

            def stop(self): ...
    """
    entry = "from mod import Job\ngetattr(Job(), 'run')()\n"
    assert _unused_in(tmp_path, module, entry) == ["Job.stop"]


def test_a_use_inside_an_unused_symbol_is_no_use(tmp_path):
    module = """
        def leaf(): ...

        def middle():
            return leaf()

        def main(): ...
    """
    assert _unused_in(tmp_path, module, "from mod import main\n") == ["leaf", "middle"]
