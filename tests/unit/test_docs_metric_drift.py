"""Doc-drift guard: every metric name ``src/`` records must have a row
in docs/OBSERVABILITY.md.

Metric names are string literals handed to a registry's ``count``,
``gauge`` or ``observe``.  This test walks the syntax tree of every
module under ``src/`` (nothing is imported or executed), collects those
literals, and fails for any name the page does not show in backticks —
either bare (`` `cp.solves` ``) or as a labelled series
(`` `cp.repair.moves{repairer=cp}` ``).
"""

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
OBSERVABILITY = REPO_ROOT / "docs" / "OBSERVABILITY.md"

_RECORDERS = {"count", "gauge", "observe"}
#: ``registry``, ``self._registry``, ``get_registry()``...
_REGISTRY_RE = re.compile(r"registry(\(\))?$")


def emitted_metric_names(source_root: Path = REPO_ROOT / "src") -> dict[str, str]:
    """Metric name -> first ``path:line`` recording it, over ``source_root``."""
    names: dict[str, str] = {}
    for path in sorted(source_root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _RECORDERS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
                and _REGISTRY_RE.search(ast.unparse(node.func.value))
            ):
                continue
            where = f"{path.relative_to(source_root)}:{node.lineno}"
            names.setdefault(node.args[0].value, where)
    return names


def undocumented(names, page: str) -> list[str]:
    """The names ``page`` never shows in backticks."""
    return sorted(
        name
        for name in names
        if f"`{name}`" not in page and f"`{name}{{" not in page
    )


_EMITTED = emitted_metric_names()


class TestMetricsAreDocumented:
    def test_extractor_finds_the_stack_metrics(self):
        """The walk itself must not silently rot: the stack records
        well over a hundred distinct metric names."""
        assert len(_EMITTED) >= 100, sorted(_EMITTED)
        assert {"cp.solves", "tabu.repair.moves", "engine.cache.hits"} <= set(_EMITTED)

    def test_every_emitted_metric_has_a_row(self):
        missing = undocumented(_EMITTED, OBSERVABILITY.read_text())
        assert not missing, "metrics missing from docs/OBSERVABILITY.md: " + ", ".join(
            f"{name} ({_EMITTED[name]})" for name in missing
        )

    def test_guard_catches_an_undocumented_name(self, tmp_path):
        """Sanity check on the guard: a new literal shows up as missing,
        and a name that only appears inside a longer one does not pass."""
        module = tmp_path / "emitter.py"
        module.write_text(
            "from repro.telemetry import get_registry\n"
            "registry = get_registry()\n"
            'registry.count("made.up.counter")\n'
            'get_registry().observe("made.up.seconds", 1.0, algorithm="x")\n'
            '"a.b".count("a")\n'
        )
        names = emitted_metric_names(tmp_path)
        assert set(names) == {"made.up.counter", "made.up.seconds"}
        page = "| `made.up.counter.total` | counter | ... |\n| `made.up.seconds{algorithm=…}` |"
        assert undocumented(names, page) == ["made.up.counter"]
