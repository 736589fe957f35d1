"""Resource attribute schema (the set H of Table I).

The paper fixes attention on CPU, RAM and disk but notes the model "can
be extended to other specific attributes".  :class:`AttributeSchema`
captures an ordered list of attribute names with units, and enforces
the paper's requirement that provider and consumer resources share the
same attribute set (h = h').
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ValidationError

__all__ = ["AttributeSchema", "DEFAULT_ATTRIBUTES"]


@dataclass(frozen=True)
class AttributeSchema:
    """An ordered, named set of resource attributes.

    Parameters
    ----------
    names:
        Attribute names, e.g. ``("cpu", "ram", "disk")``.  Order is
        significant: it fixes the column order of every capacity
        matrix (P, C, F) in the model.
    units:
        Optional per-attribute unit labels (``("vcpu", "GiB", "GiB")``).
        Purely documentary; defaults to dimensionless.
    """

    names: tuple[str, ...]
    units: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.names:
            raise ValidationError("an AttributeSchema needs at least one attribute")
        if len(set(self.names)) != len(self.names):
            raise ValidationError(f"duplicate attribute names in {self.names}")
        if self.units and len(self.units) != len(self.names):
            raise ValidationError(
                f"{len(self.units)} units for {len(self.names)} attributes"
            )
        if not self.units:
            object.__setattr__(self, "units", ("",) * len(self.names))

    @property
    def h(self) -> int:
        """The number of attributes (``h`` in Table I)."""
        return len(self.names)

    def index(self, name: str) -> int:
        """Column index of attribute ``name``; raises if unknown."""
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError(
                f"unknown attribute {name!r}; schema has {self.names}"
            ) from None

    def __len__(self) -> int:
        return self.h

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self.names


#: The paper's default attribute set: "we focus on attributes such as
#: CPU, RAM and disk for each virtual and physical resource".
DEFAULT_ATTRIBUTES = AttributeSchema(
    names=("cpu", "ram", "disk"),
    units=("vcpu", "GiB", "GiB"),
)
