"""Synthetic scenario generation.

The paper evaluates on scenarios "randomly generated with parameter
configurations that reflect typical infrastructure sizes and cloud
provider practices", up to 800 servers and 1600 virtual machines.  The
authors' generator is not published; :class:`ScenarioGenerator` is our
documented substitute (see DESIGN.md substitutions): heterogeneous
server capacities and costs, VM demands drawn from flavour-like size
classes and scaled to a target *tightness* (fraction of estate capacity
demanded), and affinity/anti-affinity rules sampled per request.

:mod:`repro.workloads.scenarios` is the registry of named *dynamic*
scenarios — seeded churn/traffic/failure event streams
replayable through the time-window scheduler (docs/SCENARIOS.md).
"""

from repro.workloads.generator import Scenario, ScenarioGenerator, ScenarioSpec
from repro.workloads.scenarios import (
    CompiledScenario,
    DynamicScenarioSpec,
    ScenarioResult,
    compile_scenario,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.workloads.traces import Trace, TraceGenerator, TraceSpec

__all__ = [
    "Scenario",
    "ScenarioGenerator",
    "ScenarioSpec",
    "CompiledScenario",
    "DynamicScenarioSpec",
    "ScenarioResult",
    "compile_scenario",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "Trace",
    "TraceGenerator",
    "TraceSpec",
]
