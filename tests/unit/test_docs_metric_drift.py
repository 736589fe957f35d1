"""Doc-drift guard: every metric and span name ``src/`` records must be
documented in docs/OBSERVABILITY.md.

Metric names are string literals handed to a registry's ``count``,
``gauge`` or ``observe``; span names are the first argument of a
``span(...)`` call.  This test walks the syntax tree of every module
under ``src/`` (nothing is imported or executed), collects those names,
and fails for any name the page does not show in backticks.  A metric
may appear bare (`` `cp.solves` ``) or as a labelled series
(`` `cp.repair.moves{repairer=cp}` ``).  A span named by an f-string
matches a backticked name with a ``<...>`` placeholder in place of each
formatted part (`` `<algorithm>.generation` ``).
"""

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
OBSERVABILITY = REPO_ROOT / "docs" / "OBSERVABILITY.md"

_RECORDERS = {"count", "gauge", "observe"}
#: ``registry``, ``self._registry``, ``get_registry()``...
_REGISTRY_RE = re.compile(r"registry(\(\))?$")


def _calls(source_root: Path):
    """(``path:line``, call node) for every call with arguments under ``source_root``."""
    for path in sorted(source_root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and node.args:
                yield f"{path.relative_to(source_root)}:{node.lineno}", node


def emitted_metric_names(source_root: Path = REPO_ROOT / "src") -> dict[str, str]:
    """Metric name -> first ``path:line`` recording it, over ``source_root``."""
    names: dict[str, str] = {}
    for where, node in _calls(source_root):
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _RECORDERS
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and _REGISTRY_RE.search(ast.unparse(node.func.value))
        ):
            names.setdefault(node.args[0].value, where)
    return names


def undocumented(names, page: str) -> list[str]:
    """The names ``page`` never shows in backticks."""
    return sorted(
        name
        for name in names
        if f"`{name}`" not in page and f"`{name}{{" not in page
    )


#: Stands for one formatted part of an f-string span name.
_PLACEHOLDER = "<*>"


def _span_name(node: ast.expr) -> str | None:
    """The span name a literal or f-string spells, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            part.value if isinstance(part, ast.Constant) else _PLACEHOLDER
            for part in node.values
        )
    return None


def emitted_span_names(source_root: Path = REPO_ROOT / "src") -> dict[str, str]:
    """Span name -> first ``path:line`` opening it, over ``source_root``.

    Covers ``span(...)`` and ``<tracer>.span(...)`` calls; a call that
    forwards a variable (the tracer's own ``span`` helper) names no span.
    """
    names: dict[str, str] = {}
    for where, node in _calls(source_root):
        func = node.func
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        name = _span_name(node.args[0]) if callee == "span" else None
        if name is not None:
            names.setdefault(name, where)
    return names


def undocumented_spans(names, page: str) -> list[str]:
    """The span names ``page`` never shows in backticks."""
    missing = []
    for name in names:
        pattern = "<[^`<>]+>".join(re.escape(part) for part in name.split(_PLACEHOLDER))
        if not re.search(f"`{pattern}`", page):
            missing.append(name)
    return sorted(missing)


_EMITTED = emitted_metric_names()
_SPANS = emitted_span_names()


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


class TestSpansAreDocumented:
    def test_extractor_finds_every_span_site(self):
        assert set(_SPANS) == {
            "<*>.generation",
            "ea.repair",
            "scheduler.allocate",
            "service.reoptimize.cycle",
            "market.broker",
        }, _SPANS

    def test_every_span_is_documented(self):
        missing = undocumented_spans(_SPANS, OBSERVABILITY.read_text())
        assert not missing, "spans missing from docs/OBSERVABILITY.md: " + ", ".join(
            f"{name} ({_SPANS[name]})" for name in missing
        )

    def test_guard_catches_an_undocumented_span(self, tmp_path):
        """Sanity check on the guard: a made-up span shows up as missing,
        an f-string span needs a placeholder in its backticked name, and
        a forwarded variable names no span."""
        module = tmp_path / "spans.py"
        module.write_text(
            "from repro.telemetry import span, get_tracer\n"
            'with span("made.up.span", rows=1):\n'
            "    pass\n"
            'with get_tracer().span(f"{kind}.made.up"):\n'
            "    pass\n"
            "def forward(name):\n"
            "    return span(name)\n"
        )
        names = emitted_span_names(tmp_path)
        assert set(names) == {"made.up.span", "<*>.made.up"}
        page = "`made.up.span.total` and `<kind>.made.up`"
        assert undocumented_spans(names, page) == ["made.up.span"]
        assert undocumented_spans(names, "`kind.made.up`") == ["<*>.made.up", "made.up.span"]
