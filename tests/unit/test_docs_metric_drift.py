"""Doc-drift guard: every metric and span name ``src/`` records must be
documented in docs/OBSERVABILITY.md, and every metric the page's tables
document must still be recorded.

Metric names are string literals handed to a registry's ``count``,
``gauge`` or ``observe``; span names are the first argument of a
``span(...)`` call.  This test walks the syntax tree of every module
under ``src/`` (nothing is imported or executed), collects those names,
and fails for any name the page does not show in backticks.  A metric
may appear bare (`` `cp.solves` ``) or as a labelled series
(`` `cp.repair.moves{repairer=cp}` ``).  A name spelled by an f-string
matches a backticked name with a ``<...>`` placeholder in place of each
formatted part (`` `<algorithm>.generation` ``).

The other direction reads the first column of every table headed
``| metric |`` and fails for any backticked name that no literal (or
f-string, for a name with placeholders) under ``src/`` records.
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


#: Stands for one formatted part of an f-string name.
_PLACEHOLDER = "<*>"


def _name(node: ast.expr) -> str | None:
    """The name a literal or f-string spells, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            part.value if isinstance(part, ast.Constant) else _PLACEHOLDER
            for part in node.values
        )
    return None


def _doc_pattern(name: str) -> str:
    """A regex for ``name`` as the page spells it: each ``<*>`` is a
    backticked ``<...>`` placeholder."""
    return "<[^`<>]+>".join(re.escape(part) for part in name.split(_PLACEHOLDER))


def emitted_metric_names(source_root: Path = REPO_ROOT / "src") -> dict[str, str]:
    """Metric name -> first ``path:line`` recording it, over ``source_root``."""
    names: dict[str, str] = {}
    for where, node in _calls(source_root):
        name = _name(node.args[0])
        if (
            name is not None
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _RECORDERS
            and _REGISTRY_RE.search(ast.unparse(node.func.value))
        ):
            names.setdefault(name, where)
    return names


def undocumented(names, page: str) -> list[str]:
    """The names ``page`` never shows in backticks, bare or labelled."""
    return sorted(
        name for name in names if not re.search(f"`{_doc_pattern(name)}[`{{]", page)
    )


def documented_metric_names(page: str, header: str = "metric") -> list[str]:
    """The backticked names, labels dropped, in the first column of every
    table headed ``| <header> |`` on ``page``."""
    names: list[str] = []
    in_table = False
    for line in page.splitlines():
        first = line.split("|")[1].strip() if line.startswith("|") else None
        in_table = first is not None and (in_table or first == header)
        if in_table:
            names += [name.split("{")[0] for name in re.findall(r"`([^`]+)`", first)]
    return names


def unrecorded(documented, emitted) -> list[str]:
    """The documented names that nothing in ``emitted`` records."""
    return sorted(
        name
        for name in documented
        if re.sub("<[^<>]+>", _PLACEHOLDER, name) not in emitted
    )


def emitted_span_names(source_root: Path = REPO_ROOT / "src") -> dict[str, str]:
    """Span name -> first ``path:line`` opening it, over ``source_root``.

    Covers ``span(...)`` and ``<tracer>.span(...)`` calls; a call that
    forwards a variable (the tracer's own ``span`` helper) names no span.
    """
    names: dict[str, str] = {}
    for where, node in _calls(source_root):
        func = node.func
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        name = _name(node.args[0]) if callee == "span" else None
        if name is not None:
            names.setdefault(name, where)
    return names


def undocumented_spans(names, page: str) -> list[str]:
    """The span names ``page`` never shows in backticks."""
    return sorted(name for name in names if not re.search(f"`{_doc_pattern(name)}`", page))


_EMITTED = emitted_metric_names()
_SPANS = emitted_span_names()


class TestMetricsAreDocumented:
    def test_extractor_finds_the_stack_metrics(self):
        """The walk itself must not silently rot: the stack records
        about a hundred distinct metric names, across every layer."""
        assert len(_EMITTED) >= 90, sorted(_EMITTED)
        assert {
            "cp.solves",
            "tabu.repair.moves",
            "engine.cache.hits",
            "engine.parallel.batches",
        } <= set(_EMITTED)

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


class TestDocumentedMetricsAreRecorded:
    def test_table_walk_reads_only_metric_tables(self):
        page = OBSERVABILITY.read_text()
        documented = documented_metric_names(page)
        assert len(documented) >= 90, documented
        assert {"cp.solves", "engine.parallel.fallbacks", "verify.checks"} <= set(documented)
        # The event-type and sink tables are not metric tables.
        assert not {"GenerationCompleted", '"console"'} & set(documented)

    def test_every_documented_metric_is_recorded(self):
        stale = unrecorded(documented_metric_names(OBSERVABILITY.read_text()), _EMITTED)
        assert not stale, "metric rows in docs/OBSERVABILITY.md that src/ never records: " + (
            ", ".join(stale)
        )

    def test_guard_catches_a_stale_row(self, tmp_path):
        """Sanity check on the guard: a row nothing records is stale, a
        placeholder row needs a matching f-string, and the tables headed
        by something other than ``metric`` are not read."""
        module = tmp_path / "emitter.py"
        module.write_text(
            "registry.count(\"made.up.counter\", kind=kind)\n"
            "registry.observe(f\"{kind}.made.up\", 1.0)\n"
        )
        page = (
            "| metric | kind | meaning |\n|---|---|---|\n"
            "| `made.up.counter{kind=…}` | counter | recorded |\n"
            "| `<kind>.made.up` / `gone.metric` | histogram | half stale |\n"
            "| `made.up` | counter | no literal spells it |\n"
            "\n| event | fields |\n|---|---|\n| `NotAMetric` | `kind` |\n"
        )
        documented = documented_metric_names(page)
        assert documented == ["made.up.counter", "<kind>.made.up", "gone.metric", "made.up"]
        assert unrecorded(documented, emitted_metric_names(tmp_path)) == ["gone.metric", "made.up"]


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
