"""Deterministic random-number plumbing.

Every stochastic component in the library (scenario generation, genetic
operators, tabu tie-breaking) takes a ``seed`` argument accepting either
``None``, an ``int``, or an existing :class:`numpy.random.Generator`.
Centralizing the coercion here keeps experiments reproducible: the paper
averages over 100 randomly generated scenarios, and regenerating *the
same* 100 scenarios across benchmark runs requires stable seeding.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.types import SeedLike

__all__ = [
    "as_generator",
    "root_sequence",
    "derive_sequence",
    "install_stream",
]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged (shared stream);
    anything else is fed to :func:`numpy.random.default_rng`.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def root_sequence(seed: SeedLike = None) -> np.random.SeedSequence:
    """Coerce ``seed`` into a root :class:`numpy.random.SeedSequence`.

    A generator contributes its own seed sequence when it has one (so a
    component handed a generator derives the same child streams as one
    handed the seed that built it); ``None`` draws fresh OS entropy —
    still a *fixed* root, so streams derived from it stay coherent
    within the component even when the run as a whole is unseeded.
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        seq = getattr(seed.bit_generator, "seed_seq", None)
        if isinstance(seq, np.random.SeedSequence):
            return seq
        return np.random.SeedSequence()  # pragma: no cover - exotic bit gens
    return np.random.SeedSequence(seed)


def derive_sequence(
    root: np.random.SeedSequence, *path: int
) -> np.random.SeedSequence:
    """The child stream at ``path`` below ``root``.

    Mirrors :meth:`numpy.random.SeedSequence.spawn` semantics — a child
    carries ``spawn_key = parent.spawn_key + path`` over the same
    entropy and pool size — but addresses children by *coordinate*
    instead of by spawn order.  That is what makes parallel fan-out
    deterministic: deriving stream ``(generation, individual)`` yields
    the same :class:`~numpy.random.SeedSequence` no matter how many
    workers run or which finishes first.
    """
    return np.random.SeedSequence(
        entropy=root.entropy,
        spawn_key=(*root.spawn_key, *(int(p) for p in path)),
        pool_size=root.pool_size,
    )


#: Most starting states :func:`install_stream` remembers; a full memo
#: starts over.
_STREAM_MEMO_SIZE = 4096
#: (entropy, spawn key, pool size, path) -> the PCG64 (state, inc) a
#: generator seeded with ``derive_sequence(root, *path)`` starts in.
#: Plain ints, so no caller can change a remembered state.
_STREAM_STATES: dict[tuple, tuple[int, int]] = {}
#: Guards the size check and insert of a miss (lookups need no lock).
_STREAM_LOCK = threading.Lock()


def install_stream(
    generator: np.random.Generator, root: np.random.SeedSequence, *path: int
) -> np.random.Generator:
    """Put ``generator`` in the state ``default_rng(derive_sequence(root,
    *path))`` starts in, and return it.

    ``generator`` must run on :class:`~numpy.random.PCG64` (every
    :func:`numpy.random.default_rng` generator does).  Deriving a
    stream costs a :class:`~numpy.random.SeedSequence` and a PCG64
    seeding; installing a remembered state skips both.  Callers that
    address the same coordinates again (every repair of one seed walks
    rows ``(batch, row)`` of the same root) mostly hit the memo.
    """
    entropy = root.entropy
    key = (
        entropy if isinstance(entropy, int) else tuple(entropy),
        root.spawn_key,
        root.pool_size,
        path,
    )
    start = _STREAM_STATES.get(key)
    if start is None:
        state = np.random.PCG64(derive_sequence(root, *path)).state["state"]
        start = state["state"], state["inc"]
        with _STREAM_LOCK:
            if len(_STREAM_STATES) >= _STREAM_MEMO_SIZE:
                _STREAM_STATES.clear()
            _STREAM_STATES[key] = start
    generator.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": start[0], "inc": start[1]},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator
