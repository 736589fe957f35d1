"""NSGA-III reference-point machinery (Deb & Jain 2014).

* :func:`das_dennis_points` — the structured simplex lattice of
  reference directions.  For k objectives and p divisions it yields
  C(k + p - 1, p) points; 3 objectives with 12 divisions → 91 points,
  pairing naturally with the paper's population of 100.
* :class:`ReferencePointNiching` — the NSGA-III environmental-selection
  step: adaptive normalization of the merged population, association of
  each individual with its nearest reference direction (perpendicular
  distance), and niche-preserving selection from the partial front.

Both the lattice and the niching operator built from it depend only on
``(n_objectives, divisions)``, so they are memoized: every NSGA-III /
U-NSGA-III construction in a sweep shares one set of points and one
:class:`ReferencePointNiching` instead of rebuilding the recursion per
run (the operator keeps no per-run state — the selection RNG is passed
per call).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import ValidationError
from repro.types import FloatArray, IntArray, SeedLike
from repro.utils.rng import as_generator

__all__ = ["das_dennis_points", "niching_for", "ReferencePointNiching"]


@lru_cache(maxsize=64)
def _das_dennis_cached(n_objectives: int, divisions: int) -> FloatArray:
    points: list[list[float]] = []
    partial = np.zeros(n_objectives)

    def recurse(index: int, remaining: int) -> None:
        if index == n_objectives - 1:
            partial[index] = remaining / divisions
            points.append(partial.copy().tolist())
            return
        for ticks in range(remaining + 1):
            partial[index] = ticks / divisions
            recurse(index + 1, remaining - ticks)

    recurse(0, divisions)
    lattice = np.asarray(points, dtype=np.float64)
    lattice.flags.writeable = False  # cached: shared by every caller
    return lattice


def das_dennis_points(n_objectives: int, divisions: int) -> FloatArray:
    """Structured reference points on the unit simplex.

    Returns an array of shape (n_points, n_objectives) whose rows are
    nonnegative and sum to 1.  The lattice is memoized by
    ``(n_objectives, divisions)`` and returned *read-only*; callers
    needing a private mutable copy must ``.copy()`` it.
    """
    if n_objectives < 2:
        raise ValidationError(f"need >= 2 objectives, got {n_objectives}")
    if divisions < 1:
        raise ValidationError(f"need >= 1 division, got {divisions}")
    return _das_dennis_cached(int(n_objectives), int(divisions))


@lru_cache(maxsize=64)
def niching_for(n_objectives: int, divisions: int) -> "ReferencePointNiching":
    """The shared :class:`ReferencePointNiching` for one lattice shape.

    Safe to share across runs and algorithms: the operator is immutable
    after construction (normalize/associate/select are pure functions
    of their arguments plus the fixed directions).
    """
    return ReferencePointNiching(das_dennis_points(n_objectives, divisions))


class ReferencePointNiching:
    """The NSGA-III niche-preserving selection operator.

    Parameters
    ----------
    reference_points:
        (r, k) simplex points from :func:`das_dennis_points`.
    """

    def __init__(self, reference_points: FloatArray) -> None:
        ref = np.asarray(reference_points, dtype=np.float64)
        if ref.ndim != 2:
            raise ValidationError("reference points must be 2-D")
        norms = np.linalg.norm(ref, axis=1)
        if np.any(norms <= 0):
            raise ValidationError("reference points must be nonzero")
        self.reference_points = ref
        self._directions = ref / norms[:, None]

    @property
    def n_points(self) -> int:
        """Number of reference directions."""
        return self.reference_points.shape[0]

    # ------------------------------------------------------------------
    @staticmethod
    def normalize(objectives: FloatArray) -> FloatArray:
        """Adaptive normalization to [0, ~1] per objective.

        The full achievement-scalarizing extreme-point construction of
        the original paper degenerates on the small, noisy fronts seen
        here; ideal/nadir min-max normalization is the standard robust
        fallback and preserves the niching behaviour.
        """
        objectives = np.asarray(objectives, dtype=np.float64)
        ideal = objectives.min(axis=0)
        nadir = objectives.max(axis=0)
        span = np.where(nadir - ideal > 1e-12, nadir - ideal, 1.0)
        return (objectives - ideal) / span

    def associate(self, normalized: FloatArray) -> tuple[IntArray, FloatArray]:
        """Nearest reference direction and perpendicular distance per point."""
        # Projection of each point onto each unit direction.
        proj = normalized @ self._directions.T  # (pop, r)
        # Squared perpendicular distance: |f|^2 - proj^2.
        sq_norm = (normalized**2).sum(axis=1, keepdims=True)
        perp_sq = np.maximum(0.0, sq_norm - proj**2)
        nearest = perp_sq.argmin(axis=1).astype(np.int64)
        distance = np.sqrt(perp_sq[np.arange(len(nearest)), nearest])
        return nearest, distance

    # ------------------------------------------------------------------
    def select(
        self,
        objectives: FloatArray,
        confirmed: IntArray,
        partial_front: IntArray,
        n_select: int,
        seed: SeedLike = None,
    ) -> IntArray:
        """Pick ``n_select`` members of ``partial_front`` by niching.

        Parameters
        ----------
        objectives:
            Objectives of the merged population (confirmed + partial).
        confirmed:
            Indices already chosen (fronts that fit entirely).
        partial_front:
            Indices of the front that must be split.
        n_select:
            How many of ``partial_front`` to keep.

        Returns
        -------
        Indices (subset of ``partial_front``) of the selected members.
        """
        confirmed = np.asarray(confirmed, dtype=np.int64)
        partial_front = np.asarray(partial_front, dtype=np.int64)
        if n_select < 0 or n_select > partial_front.size:
            raise ValidationError(
                f"cannot select {n_select} from front of {partial_front.size}"
            )
        if n_select == 0:
            return np.empty(0, dtype=np.int64)
        if n_select == partial_front.size:
            return partial_front.copy()

        rng = as_generator(seed)
        pool = np.concatenate([confirmed, partial_front])
        normalized = self.normalize(objectives[pool])
        nearest, distance = self.associate(normalized)

        n_confirmed = confirmed.size
        niche_count = np.bincount(nearest[:n_confirmed], minlength=self.n_points).tolist()
        cand_dist = distance[n_confirmed:].tolist()
        front = partial_front.tolist()
        # Each niche's available candidates, in ascending candidate order.
        members_of: dict[int, list[int]] = {}
        for index, niche in enumerate(nearest[n_confirmed:].tolist()):
            members_of.setdefault(niche, []).append(index)
        live = sorted(members_of)  # niches that still have candidates
        chosen: list[int] = []

        while len(chosen) < n_select:
            least = min(niche_count[niche] for niche in live)
            minimal = [niche for niche in live if niche_count[niche] == least]
            # ``rng.integers(0, k)`` is the very draw ``rng.choice``
            # makes over k entries (rule 1 of docs/PERFORMANCE.md).
            niche = minimal[int(rng.integers(0, len(minimal)))]
            members = members_of[niche]
            if niche_count[niche] == 0:
                # Empty niche: take the member closest to the direction.
                pick = _first_min(members, cand_dist)
            else:
                pick = members[int(rng.integers(0, len(members)))]
            chosen.append(front[pick])
            members.remove(pick)
            if not members:
                live.remove(niche)
            niche_count[niche] += 1

        return np.asarray(chosen, dtype=np.int64)


def _first_min(indices: list[int], values: list[float]) -> int:
    """The index ``np.argmin(values[indices])`` selects: the first NaN,
    else the first smallest value."""
    best = indices[0]
    smallest = values[best]
    if smallest != smallest:
        return best
    for index in indices[1:]:
        value = values[index]
        if value != value:
            return index
        if value < smallest:
            best, smallest = index, value
    return best
