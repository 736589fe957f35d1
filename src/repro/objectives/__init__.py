"""Objective system: the three monetary objectives of Eq. 15.

* :class:`UsageOperatingCost` — Eq. 22, provider exploitation (E) plus
  consumer usage (U) costs for every hosted resource.
* :class:`DowntimeCost` — Eq. 23, penalties accrued where the QoS model
  (Eq. 24 over the loads of Eq. 25) misses the guarantee C^Q.
* :class:`MigrationCost` — Eq. 26, the reconfiguration-plan estimate:
  migration charges for every resource whose host changed between the
  current allocation X^t and the candidate X^{t+1}.

:class:`ObjectiveVector` aggregates them (equal weights by default, as
in the paper) and :class:`PopulationEvaluator` evaluates whole
populations without Python-level loops.
"""

from repro.objectives.qos import qos_from_load, loads_from_usage
from repro.objectives.usage_cost import UsageOperatingCost
from repro.objectives.downtime import DowntimeCost
from repro.objectives.energy import ENERGY_IDLE_FRACTION, EnergyCost, power_model
from repro.objectives.migration import MigrationCost
from repro.objectives.aggregate import ObjectiveVector, aggregate_scalar
from repro.objectives.evaluator import PopulationEvaluator
from repro.objectives.network import CommunicationCost

__all__ = [
    "qos_from_load",
    "loads_from_usage",
    "UsageOperatingCost",
    "DowntimeCost",
    "ENERGY_IDLE_FRACTION",
    "EnergyCost",
    "power_model",
    "MigrationCost",
    "ObjectiveVector",
    "aggregate_scalar",
    "PopulationEvaluator",
    "CommunicationCost",
]
