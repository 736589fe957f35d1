"""One report type for ``repro.verify`` and one registry for ``verify --check``.

Every subsystem ships a byte-identity contract — the kernel layer, the
market layer, the anytime portfolio, kill-and-resume, serial-vs-parallel
and the live service — and each contract is proved the same way: run the
real thing twice and compare what came out.  They all report through
:class:`Report`, so a mismatch reads the same whichever contract broke,
and they all count into three telemetry series labelled by check name:
``verify.checks``, ``verify.comparisons`` and ``verify.mismatches``.
The differential oracle (``oracle``, ``parity``), the metamorphic laws
(``metamorphic``, ``dynamic``) and the fuzz campaign (``fuzz``) report
and count the same way; only the invariant catalog keeps its own
report type.

:data:`CHECKS` maps each ``python -m repro verify --check NAME`` name to
its function.  A check function takes ``seed=`` (plus, for ``parallel``
and ``service``, one positional argument the CLI spells ``NAME=ARG``)
and returns a :class:`Report`.  Adding a contract costs that function
and one entry here; ``docs/VERIFY.md`` lists the registered checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.telemetry import get_registry

__all__ = ["CHECKS", "Mismatch", "Report"]


@dataclass(frozen=True)
class Mismatch:
    """One compared quantity that broke its contract."""

    where: str  #: the case, layer or run the comparison belongs to
    field: str  #: which compared quantity drifted
    message: str

    def __str__(self) -> str:
        return f"[{self.where}] {self.field}: {self.message}"


@dataclass
class Report:
    """Outcome of one conformance check.

    ``subject`` names what was checked (instance size, seed, worker
    counts...); ``stats`` carries the check's own counts (cases run,
    resumed generations, log records...), printed after the totals.
    """

    check: str
    subject: str
    comparisons: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)
    stats: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        get_registry().count("verify.checks", check=self.check)

    @property
    def ok(self) -> bool:
        """Whether every comparison held."""
        return not self.mismatches

    def compare(self, where: str, pairs: dict[str, tuple[Any, Any]]) -> None:
        """Compare each ``field: (expected, actual)`` pair: shape, then bytes."""
        for name, (expected, actual) in pairs.items():
            expected = np.asarray(expected)
            actual = np.asarray(actual)
            if expected.shape != actual.shape:
                message = f"shape {actual.shape} != expected {expected.shape}"
            elif expected.tobytes() == actual.tobytes():
                message = ""
            elif expected.dtype != actual.dtype:
                message = f"dtype {actual.dtype} != expected {expected.dtype}"
            else:
                drift = int(np.count_nonzero(expected != actual))
                message = f"{drift} of {expected.size} entries differ"
            self.note(not message, where, name, message)

    def note(self, ok: bool, where: str, field_name: str, message: str) -> None:
        """Count one comparison; record a mismatch unless it held."""
        self.comparisons += 1
        get_registry().count("verify.comparisons", check=self.check)
        if not ok:
            self.flag(where, field_name, message)

    def flag(self, where: str, field_name: str, message: str) -> None:
        """Record a mismatch (counted as a comparison only via :meth:`note`)."""
        get_registry().count("verify.mismatches", check=self.check)
        self.mismatches.append(Mismatch(where, field_name, message))

    def merge(self, other: "Report", where: str) -> None:
        """Fold a finished sub-check in: its comparisons (also tallied in
        ``stats[other.check]``) and its mismatches, prefixed with ``where``.

        ``other`` counted both into telemetry under its own check label,
        so nothing is counted again.
        """
        self.comparisons += other.comparisons
        self.stats[other.check] = self.stats.get(other.check, 0) + other.comparisons
        self.mismatches.extend(
            Mismatch(f"{where}, {m.where}", m.field, m.message)
            for m in other.mismatches
        )

    def format(self) -> str:
        """The check, its counts and stats, then one line per mismatch."""
        stats = "".join(f", {key}={value}" for key, value in self.stats.items())
        header = (
            f"{self.check} [{self.subject}]: {'ok' if self.ok else 'FAILED'} — "
            f"{self.comparisons} comparisons, {len(self.mismatches)} mismatches"
            f"{stats}"
        )
        return "\n".join([header, *(f"  {mismatch}" for mismatch in self.mismatches)])


# Imported last: every check module imports Report from this one.
from repro.verify.anytime import check_anytime_conformance  # noqa: E402
from repro.verify.kernels import check_kernel_conformance  # noqa: E402
from repro.verify.market import check_market_conformance  # noqa: E402
from repro.verify.parallel import check_parallel_determinism  # noqa: E402
from repro.verify.resume import check_resume_determinism  # noqa: E402
from repro.verify.service import check_service_conformance  # noqa: E402

#: ``verify --check NAME`` -> the function proving that contract.
CHECKS: dict[str, Callable[..., Report]] = {
    "kernels": check_kernel_conformance,
    "market": check_market_conformance,
    "anytime": check_anytime_conformance,
    "resume": check_resume_determinism,
    "parallel": check_parallel_determinism,
    "service": check_service_conformance,
}
