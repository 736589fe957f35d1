"""What ``import repro`` loads, checked in fresh interpreters.

The package root resolves its public names on first access (PEP 562),
so the allocation paths never load the heavy optional dependencies.
Each case runs in its own ``sys.executable`` because ``sys.modules`` of
the test process already holds whatever earlier tests imported.  The
cases assert module sets and object identity, never times.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Loaded only by the features that need them, never by an allocation.
HEAVY = (
    "scipy",
    "networkx",
    "asyncio",
    "concurrent.futures.process",
    "repro.lp",
    "repro.topology",
    "repro.service",
    "repro.portfolio",
    "repro.evaluation",
    "repro.market",
)

#: A toy `failure_storm` replay through nsga3_tabu (the churn path) and
#: a toy NSGA-III allocation (the alloc path); prints nothing.
_WORKLOADS = """
import dataclasses

import repro
from repro.workloads.scenarios import compile_scenario, get_scenario

config = repro.NSGAConfig(population_size=8, max_evaluations=48, seed=0)
spec = dataclasses.replace(
    get_scenario("failure_storm"), servers=8, datacenters=2, horizon=6.0,
    arrival_rate=1.5, mean_lifetime=3.0, reoptimize_every=3,
)
allocator = repro.NSGA3TabuAllocator(config)
try:
    replay = compile_scenario(spec, seed=1).run(allocator)
finally:
    allocator.close()
assert isinstance(allocator, repro.NSGA3TabuAllocator)
assert replay.metrics.windows > 0
assert "repro.scheduler.window" in sys.modules
assert repro.TimeWindowScheduler.__module__ == "repro.scheduler.window"

instance = repro.ScenarioGenerator(
    repro.ScenarioSpec(servers=10, datacenters=2, vms=20), seed=1
).generate()
allocator = repro.NSGA3Allocator(config)
try:
    outcome = allocator.allocate(instance.infrastructure, instance.requests)
finally:
    allocator.close()
assert outcome.n_requests == len(instance.requests)
"""


def _run(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; returns its last line as JSON."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_repro_loads_no_subpackage():
    loaded = _run("""
        import repro
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
    """)
    assert loaded == ["repro"]


def test_allocation_paths_load_no_heavy_dependency():
    loaded = _run(_WORKLOADS + f"""
print(json.dumps([name for name in {HEAVY!r} if name in sys.modules]))
""")
    assert loaded == []


def test_allocation_paths_run_without_scipy_and_networkx():
    result = _run('sys.modules["scipy"] = sys.modules["networkx"] = None\n' + _WORKLOADS + """
try:
    repro.solve_ilp
except ImportError as exc:
    error = str(exc)
else:
    error = None
print(json.dumps({"error": error, "bound": "solve_ilp" in vars(repro)}))
""")
    assert result["error"] is not None and "scipy" in result["error"]
    assert not result["bound"]


def test_serialization_imports_first():
    """The model codecs import no layer above the model, so they load
    in a fresh interpreter before anything else."""
    loaded = _run("""
        import repro.serialization
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro."))))
    """)
    below = ("errors", "model", "serialization", "types", "utils")
    assert "repro.serialization" in loaded
    assert [name for name in loaded if name.split(".")[1] not in below] == []


def test_cli_help_loads_no_solver():
    """Parsing the command line loads no solver and no harness: each
    command imports what it runs."""
    loaded = _run("""
        import contextlib
        import io

        from repro.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            try:
                main(["--help"])
            except SystemExit:
                pass
        print(json.dumps(sorted(sys.modules)))
    """)
    solvers = ("repro.hybrid", "repro.cp", "repro.evaluation", "repro.verify", *HEAVY)
    assert [name for name in solvers if name in loaded] == []


def test_table_printing_loads_no_harness():
    """``scenario list`` prints its table with the printer in
    ``repro.utils``: no module of the measurement harness loads."""
    loaded = _run("""
        import contextlib
        import io

        from repro.cli import main

        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["scenario", "list"])
        assert code == 0 and "failure_storm" in out.getvalue()
        print(json.dumps(sorted(sys.modules)))
    """)
    assert [name for name in loaded if name.startswith("repro.evaluation")] == []


def test_public_names_subpackages_and_unknown_names():
    result = _run("""
        import importlib
        import pkgutil
        import types

        import repro

        def defined_there(name, value):
            if isinstance(value, types.ModuleType):
                return value is sys.modules.get(f"repro.{name}")
            if isinstance(value, str):
                return name == "__version__"
            return getattr(importlib.import_module(value.__module__), name) is value

        listed = dir(repro)
        namespace = {}
        exec("from repro import *", namespace)
        subpackages = [
            module.name for module in pkgutil.iter_modules(repro.__path__)
            if module.name != "__main__"
        ]
        try:
            repro.nope
        except AttributeError as exc:
            unknown = str(exc)
        else:
            unknown = None
        print(json.dumps({
            "names": list(repro.__all__),
            "elsewhere": [
                name for name in repro.__all__
                if not defined_there(name, getattr(repro, name))
            ],
            "unlisted": [
                name for name in [*repro.__all__, *subpackages] if name not in listed
            ],
            "unbound": [
                name for name in repro.__all__
                if name not in namespace or namespace[name] is not getattr(repro, name)
            ],
            "subpackages": subpackages,
            "unresolved": [
                name for name in subpackages
                if getattr(repro, name) is not sys.modules.get(f"repro.{name}")
            ],
            "unknown": unknown,
            "hasattr": hasattr(repro, "nope"),
        }))
    """)
    names = result["names"]
    assert len(names) == len(set(names)) == 49
    assert result["elsewhere"] == []
    assert result["unlisted"] == []
    assert result["unbound"] == []
    assert {"market", "service", "topology"} <= set(result["subpackages"])
    assert result["unresolved"] == []
    assert result["unknown"] == "module 'repro' has no attribute 'nope'"
    assert result["hasattr"] is False


def test_concurrent_first_access_binds_one_object():
    """Six threads resolve three names at once under a short switch
    interval.  Two of the names reach repro.cp, one through repro.hybrid
    and one through repro.portfolio, so unserialized first access hands
    one thread a half-initialized module."""
    result = _run("""
        import threading

        import repro

        names = ("NSGA3TabuAllocator", "TimeWindowScheduler", "verify")
        found = {name: [] for name in names}
        barrier = threading.Barrier(2 * len(names), timeout=60)

        def resolve(name):
            barrier.wait()
            found[name].append(getattr(repro, name))

        threads = [
            threading.Thread(target=resolve, args=(name,))
            for name in names for _ in range(2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        print(json.dumps({
            "alive": sum(thread.is_alive() for thread in threads),
            "same": {
                name: len(values) == 2 and all(v is getattr(repro, name) for v in values)
                for name, values in found.items()
            },
        }))
    """)
    assert result["alive"] == 0
    assert result["same"] == dict.fromkeys(
        ("NSGA3TabuAllocator", "TimeWindowScheduler", "verify"), True
    )
