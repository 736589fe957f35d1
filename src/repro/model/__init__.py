"""Cloud model layer: the paper's Table I as first-class objects.

The model follows Section III of the paper.  A provider operates ``g``
datacenters containing ``m`` servers; each server exposes ``h``
attributes (CPU, RAM, disk by default).  Consumers submit requests of
``n`` virtual resources, each demanding capacity on the same ``h``
attributes, plus affinity/anti-affinity placement rules and QoS
guarantees.  Everything is stored as NumPy matrices so the constraint
and objective layers can evaluate whole populations without Python
loops.
"""

from repro.model.attributes import AttributeSchema, DEFAULT_ATTRIBUTES
from repro.model.infrastructure import Infrastructure
from repro.model.request import PlacementGroup, Request
from repro.model.placement import Placement
from repro.model.state import PlatformState
from repro.model.diagnosis import Finding, diagnose_instance

__all__ = [
    "AttributeSchema",
    "DEFAULT_ATTRIBUTES",
    "Infrastructure",
    "Request",
    "PlacementGroup",
    "Placement",
    "PlatformState",
    "Finding",
    "diagnose_instance",
]
