"""Wall-clock measurement helpers for the evaluation harness.

Execution time is one of the paper's four comparison criteria
(Figures 7 and 8), so timing is a first-class concern: every algorithm
run is wrapped in a :class:`Stopwatch` and the elapsed seconds travel
with the :class:`~repro.allocator.BatchOutcome`.
"""

from __future__ import annotations

import time

__all__ = ["Stopwatch"]


class Stopwatch:
    """A restartable monotonic stopwatch.

    Usage::

        with Stopwatch() as sw:
            run_algorithm()
        print(sw.elapsed)
    """

    def __init__(self, elapsed: float = 0.0) -> None:
        if elapsed < 0:
            raise ValueError(f"elapsed must be >= 0, got {elapsed}")
        self._start: float | None = None
        # Pre-charged seconds: a resumed run restores the wall clock its
        # earlier incarnation already spent, so time limits stay honest.
        self._elapsed: float = float(elapsed)

    def start(self) -> "Stopwatch":
        """Begin (or resume) timing."""
        if self._start is None:
            self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        """Stop timing and return the accumulated elapsed seconds."""
        if self._start is not None:
            self._elapsed += time.perf_counter() - self._start
            self._start = None
        return self._elapsed

    def split(self) -> float:
        """Lap time of the in-flight segment, without stopping.

        Seconds since the most recent :meth:`start` — unlike
        :attr:`elapsed` this excludes previously accumulated segments,
        so the tracer can timestamp child spans relative to their
        enclosing span.  Returns 0.0 when the stopwatch is stopped.
        """
        if self._start is None:
            return 0.0
        return time.perf_counter() - self._start

    @property
    def elapsed(self) -> float:
        """Accumulated seconds (includes the in-flight span when running)."""
        if self._start is not None:
            return self._elapsed + (time.perf_counter() - self._start)
        return self._elapsed

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
