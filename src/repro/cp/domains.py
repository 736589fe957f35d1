"""Per-variable domains with trail-based backtracking.

Each of the n VMs has a boolean candidate mask over the m servers.
Search proceeds by *frames*: :meth:`DomainStore.push` opens a frame,
removals are logged, and :meth:`DomainStore.pop` undoes everything the
frame removed — the classic CP trail, so backtracking costs only what
the failed subtree actually pruned (no matrix copies).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.types import BoolArray, IntArray

__all__ = ["DomainStore"]


class DomainStore:
    """Trailed boolean domain matrix of shape (n, m)."""

    def __init__(self, n: int, m: int) -> None:
        if n < 1 or m < 1:
            raise ValidationError(f"n and m must be >= 1 (got {n}, {m})")
        self.n = int(n)
        self.m = int(m)
        self.mask = np.ones((n, m), dtype=bool)
        # Trail: one list of (vm, removed-server-indices) per frame.
        self._trail: list[list[tuple[int, IntArray]]] = []

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------
    def push(self) -> None:
        """Open a new backtracking frame."""
        self._trail.append([])

    def pop(self) -> None:
        """Undo every removal of the newest frame."""
        if not self._trail:
            raise ValidationError("pop() without a matching push()")
        for vm, removed in reversed(self._trail.pop()):
            self.mask[vm, removed] = True

    @property
    def depth(self) -> int:
        """Number of open frames."""
        return len(self._trail)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def candidates(self, vm: int) -> IntArray:
        """Current candidate servers of ``vm`` (ascending ids)."""
        return np.flatnonzero(self.mask[vm]).astype(np.int64)

    def domain_size(self, vm: int) -> int:
        """Number of candidates left for ``vm``."""
        return int(self.mask[vm].sum())

    def domain_sizes(self) -> IntArray:
        """Domain size per VM (vectorized, for MRV ordering)."""
        return self.mask.sum(axis=1).astype(np.int64)

    def contains(self, vm: int, server: int) -> bool:
        """Whether ``server`` is still a candidate for ``vm``."""
        return bool(self.mask[vm, server])

    # ------------------------------------------------------------------
    # Updates (logged to the current frame)
    # ------------------------------------------------------------------
    def _log(self, vm: int, removed: IntArray) -> None:
        if removed.size and self._trail:
            self._trail[-1].append((vm, removed))

    def remove_value(self, vm: int, server: int) -> bool:
        """Remove one candidate; returns False if the domain died."""
        if self.mask[vm, server]:
            self.mask[vm, server] = False
            self._log(vm, np.asarray([server], dtype=np.int64))
        return bool(self.mask[vm].any())

    def remove_where(self, vm: int, condition: BoolArray) -> bool:
        """Remove every candidate where ``condition`` (length m) holds."""
        condition = np.asarray(condition, dtype=bool)
        removed = np.flatnonzero(self.mask[vm] & condition).astype(np.int64)
        if removed.size:
            self.mask[vm, removed] = False
            self._log(vm, removed)
        return bool(self.mask[vm].any())

    def restrict_to(self, vm: int, allowed: BoolArray) -> bool:
        """Intersect the domain with ``allowed`` (length m mask)."""
        return self.remove_where(vm, ~np.asarray(allowed, dtype=bool))

    def assign(self, vm: int, server: int) -> bool:
        """Collapse the domain of ``vm`` to a single server."""
        if not self.mask[vm, server]:
            return False
        only = np.zeros(self.m, dtype=bool)
        only[server] = True
        return self.restrict_to(vm, only)
