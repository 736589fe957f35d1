"""JSON (de)serialization of the model: infrastructures and requests.

Reproducibility tooling: instances can be written to disk, shared, and
re-loaded bit-exactly — the artifact trail behind EXPERIMENTS.md.
Formats are plain JSON dictionaries with a ``"kind"`` tag and explicit
array fields (lists of lists), so they are diffable and
language-neutral.  A generated scenario's codec, built from these two,
lives next to :class:`~repro.workloads.generator.Scenario`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import ValidationError
from repro.model.attributes import AttributeSchema
from repro.model.infrastructure import Infrastructure
from repro.model.request import PlacementGroup, Request
from repro.types import PlacementRule

__all__ = [
    "infrastructure_to_dict",
    "infrastructure_from_dict",
    "request_to_dict",
    "request_from_dict",
    "check_kind",
    "save_json",
    "load_json",
]


def check_kind(data: dict, expected: str) -> None:
    """Raise :class:`~repro.errors.ValidationError` unless ``data`` is
    tagged ``kind=expected``."""
    kind = data.get("kind")
    if kind != expected:
        raise ValidationError(f"expected kind={expected!r}, got {kind!r}")


# ----------------------------------------------------------------------
# Infrastructure
# ----------------------------------------------------------------------
def infrastructure_to_dict(infra: Infrastructure) -> dict[str, Any]:
    """Serialize every Table I provider matrix."""
    payload = {
        "kind": "infrastructure",
        "schema": {"names": list(infra.schema.names), "units": list(infra.schema.units)},
        "capacity": infra.capacity.tolist(),
        "capacity_factor": infra.capacity_factor.tolist(),
        "operating_cost": infra.operating_cost.tolist(),
        "usage_cost": infra.usage_cost.tolist(),
        "max_load": infra.max_load.tolist(),
        "max_qos": infra.max_qos.tolist(),
        "server_datacenter": infra.server_datacenter.tolist(),
        "datacenter_names": list(infra.datacenter_names),
        "server_names": list(infra.server_names),
    }
    # The market axis joins the payload only when servers are actually
    # tagged, so single-provider dumps stay byte-identical to pre-market
    # output (and old dumps load unchanged).
    if infra.p > 1:
        payload["server_provider"] = infra.provider_of_server.tolist()
    if infra.provider_names:
        payload["provider_names"] = list(infra.provider_names)
    return payload


def infrastructure_from_dict(data: dict[str, Any]) -> Infrastructure:
    """Inverse of :func:`infrastructure_to_dict`."""
    check_kind(data, "infrastructure")
    schema = AttributeSchema(
        names=tuple(data["schema"]["names"]),
        units=tuple(data["schema"].get("units", ())),
    )
    return Infrastructure(
        capacity=np.asarray(data["capacity"], dtype=np.float64),
        capacity_factor=np.asarray(data["capacity_factor"], dtype=np.float64),
        operating_cost=np.asarray(data["operating_cost"], dtype=np.float64),
        usage_cost=np.asarray(data["usage_cost"], dtype=np.float64),
        max_load=np.asarray(data["max_load"], dtype=np.float64),
        max_qos=np.asarray(data["max_qos"], dtype=np.float64),
        server_datacenter=np.asarray(data["server_datacenter"], dtype=np.int64),
        schema=schema,
        datacenter_names=tuple(data.get("datacenter_names", ())),
        server_names=tuple(data.get("server_names", ())),
        server_provider=(
            np.asarray(data["server_provider"], dtype=np.int64)
            if data.get("server_provider") is not None
            else None
        ),
        provider_names=tuple(data.get("provider_names", ())),
    )


# ----------------------------------------------------------------------
# Request
# ----------------------------------------------------------------------
def request_to_dict(request: Request) -> dict[str, Any]:
    """Serialize a consumer request including its placement rules."""
    return {
        "kind": "request",
        "name": request.name,
        "schema": {
            "names": list(request.schema.names),
            "units": list(request.schema.units),
        },
        "demand": request.demand.tolist(),
        "qos_guarantee": request.qos_guarantee.tolist(),
        "downtime_cost": request.downtime_cost.tolist(),
        "migration_cost": request.migration_cost.tolist(),
        "groups": [
            {"rule": group.rule.value, "members": list(group.members)}
            for group in request.groups
        ],
    }


def request_from_dict(data: dict[str, Any]) -> Request:
    """Inverse of :func:`request_to_dict`."""
    check_kind(data, "request")
    schema = AttributeSchema(
        names=tuple(data["schema"]["names"]),
        units=tuple(data["schema"].get("units", ())),
    )
    groups = tuple(
        PlacementGroup(
            rule=PlacementRule(group["rule"]),
            members=tuple(group["members"]),
        )
        for group in data.get("groups", [])
    )
    return Request(
        demand=np.asarray(data["demand"], dtype=np.float64),
        qos_guarantee=np.asarray(data["qos_guarantee"], dtype=np.float64),
        downtime_cost=np.asarray(data["downtime_cost"], dtype=np.float64),
        migration_cost=np.asarray(data["migration_cost"], dtype=np.float64),
        groups=groups,
        schema=schema,
        name=data.get("name", ""),
    )


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------
def save_json(obj: dict[str, Any], path: str | Path) -> Path:
    """Write a serialized dictionary to ``path`` (pretty-printed)."""
    path = Path(path)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True))
    return path


def load_json(path: str | Path) -> dict[str, Any]:
    """Read a serialized dictionary back from ``path``."""
    return json.loads(Path(path).read_text())
