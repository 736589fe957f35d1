"""The deployed-solution pick: one solution of a Pareto front.

The paper commits a single solution per window by *implicit* ideal-point
distance ("closer to the ideal point", Section III) — a reasonable
default, but one the operator cannot steer.  Following Alashaikh and
Alanazi's preference-based placement, an operator may instead install
an *explicit, validated* strict importance order over the objective
criteria, written ``provider_cost>qos>migration``.

Semantics.  A ceteris-paribus order prefers solution *a* over *b* when
*a* is better on the most important criterion on which they differ,
everything else held equal.  Over a finite mutually-nondominated front,
the deterministic completion of that order is lexicographic: minimize
the most important criterion first, break ties by the next one, then by
the remaining canonical columns.  The selection is therefore

* **total** — every non-empty front yields exactly one objective vector;
* **deterministic** — no RNG, no wall clock, byte-stable per front;
* **permutation-invariant** — reordering the front's rows cannot change
  the selected objective vector (ties beyond all columns are exact
  duplicates).

:func:`select_index` is the one body of the pick: every site that
commits a single plan (the EA result and incumbent, the Pareto archive
and incumbent pool, the market broker) calls it with the process-wide
order :func:`set_preference` installs (the CLI's ``--prefer``).  With no
order installed it computes the paper's normalized ideal-point distance,
so every historical trajectory stays reproducible.  The active order's
spec joins the checkpoint trajectory keys of the EA run and the
portfolio, because it steers their stall detector and reseed.  Grammar
and worked examples: ``docs/MARKET.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.objectives.aggregate import OBJECTIVE_ORDER
from repro.types import FloatArray, ObjectiveKind

__all__ = [
    "PREFERENCE_CRITERIA",
    "PreferenceOrder",
    "parse_preference",
    "select_index",
    "set_preference",
    "active_preference",
]

#: Criterion name → its column of :data:`OBJECTIVE_ORDER`: the provider
#: cost (the optional energy term rides in it, weighted), the QoS/
#: downtime charge and the migration cost.  Aliases map operator
#: vocabulary onto those columns.
PREFERENCE_CRITERIA: dict[str, int] = {
    name: OBJECTIVE_ORDER.index(kind)
    for kind, names in (
        (ObjectiveKind.USAGE_AND_OPERATING_COST, ("provider_cost", "cost", "energy")),
        (ObjectiveKind.DOWNTIME_COST, ("qos", "downtime")),
        (ObjectiveKind.MIGRATION_COST, ("migration",)),
    )
    for name in names
}

#: Canonical column order used to complete partial specs.
_ALL_COLUMNS = tuple(range(len(OBJECTIVE_ORDER)))


@dataclass(frozen=True)
class PreferenceOrder:
    """A validated strict importance order over objective criteria.

    Attributes
    ----------
    criteria:
        The criterion names as written, most important first.
    columns:
        The full column priority: the spec's columns in order, then the
        remaining canonical columns as implicit lowest-priority
        tie-breaks.
    spec:
        The normalized spec string (``">"``-joined criteria) — the
        canonical serialized form used in trajectory keys and CLI
        round-trips.
    """

    criteria: tuple[str, ...]
    columns: tuple[int, ...]

    @property
    def spec(self) -> str:
        """The normalized ``">"``-joined spec string."""
        return ">".join(self.criteria)

    def key(self, objectives: FloatArray) -> tuple[float, ...]:
        """The comparison key of one objective vector under this order."""
        vec = np.asarray(objectives, dtype=np.float64)
        return tuple(float(vec[c]) for c in self.columns)

    def select(self, objectives: FloatArray) -> int:
        """Index of the preferred row of an (k, 3) objective matrix.

        Lexicographic minimization over :attr:`columns`; among exact
        duplicates the lowest row index wins (the duplicate rows carry
        identical objective vectors, so the *selected vector* is
        invariant under any permutation of the front).
        """
        objs = np.asarray(objectives, dtype=np.float64)
        if objs.ndim != 2 or objs.shape[0] == 0:
            raise ValidationError(
                "preference selection needs a non-empty 2-D objective matrix"
            )
        # np.lexsort sorts by the *last* key first — feed priorities in
        # reverse so columns[0] dominates.  lexsort is stable, so exact
        # duplicates resolve to the lowest index.
        keys = tuple(objs[:, c] for c in reversed(self.columns))
        return int(np.lexsort(keys)[0])

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.spec


def parse_preference(spec: str) -> PreferenceOrder:
    """Parse and validate a ``crit>crit>...`` preference spec.

    Raises
    ------
    ValidationError
        On empty specs, unknown criterion names, or two criteria that
        alias the same objective column (the order would be ambiguous).
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ValidationError("preference spec must be a non-empty string")
    names = [chunk.strip() for chunk in spec.split(">")]
    if any(not name for name in names):
        raise ValidationError(
            f"malformed preference spec {spec!r}: empty criterion "
            "(write e.g. 'provider_cost>qos>migration')"
        )
    criteria: list[str] = []
    columns: list[int] = []
    for name in names:
        column = PREFERENCE_CRITERIA.get(name.lower())
        if column is None:
            raise ValidationError(
                f"unknown preference criterion {name!r}; pick from "
                f"{', '.join(sorted(set(PREFERENCE_CRITERIA)))}"
            )
        if column in columns:
            clash = criteria[columns.index(column)]
            raise ValidationError(
                f"criterion {name!r} repeats the objective column already "
                f"ranked by {clash!r}"
            )
        criteria.append(name.lower())
        columns.append(column)
    columns.extend(c for c in _ALL_COLUMNS if c not in columns)
    return PreferenceOrder(criteria=tuple(criteria), columns=tuple(columns))


def select_index(
    objectives: FloatArray, preference: PreferenceOrder | None = None
) -> int:
    """The deployed-solution pick over a front's objective matrix.

    With a :class:`PreferenceOrder`, the ceteris-paribus selection; with
    ``None``, the paper's normalized ideal-point distance — bit-for-bit
    the historical computation, so default runs stay byte-identical.
    """
    objs = np.asarray(objectives, dtype=np.float64)
    if objs.ndim != 2 or objs.shape[0] == 0:
        raise ValidationError(
            "selection needs a non-empty 2-D objective matrix"
        )
    if preference is not None:
        return preference.select(objs)
    lo = objs.min(axis=0)
    span = objs.max(axis=0) - lo
    span = np.where(span > 0, span, 1.0)
    normalized = (objs - lo) / span
    distances = np.sqrt((normalized**2).sum(axis=1))
    return int(np.argmin(distances))


# ----------------------------------------------------------------------
# Process-wide active preference (the CLI's --prefer flag).
# ----------------------------------------------------------------------
_ACTIVE: PreferenceOrder | None = None


def set_preference(spec: str | PreferenceOrder | None) -> PreferenceOrder | None:
    """Install (or clear, with ``None``) the process-wide preference.

    Every site that commits a single plan — the EA result and
    incumbent, the incumbent pool, the broker, the portfolio's judged
    pick — reads it through :func:`active_preference`, so one CLI flag
    steers the whole stack.  Returns the installed order.
    """
    global _ACTIVE
    if spec is None:
        _ACTIVE = None
    elif isinstance(spec, PreferenceOrder):
        _ACTIVE = spec
    else:
        _ACTIVE = parse_preference(spec)
    return _ACTIVE


def active_preference() -> PreferenceOrder | None:
    """The process-wide preference order, or ``None`` (ideal point)."""
    return _ACTIVE
