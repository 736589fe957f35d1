"""Wall-clock measurement helpers for the evaluation harness.

Execution time is one of the paper's four comparison criteria
(Figures 7 and 8), so timing is a first-class concern: every algorithm
run is wrapped in a :class:`Stopwatch` and the elapsed seconds travel
with the :class:`~repro.allocator.BatchOutcome`.
"""

from __future__ import annotations

import time

__all__ = ["Stopwatch", "format_duration"]


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

    def reset(self) -> None:
        """Zero the stopwatch (also stops it)."""
        self._start = None
        self._elapsed = 0.0

    @property
    def running(self) -> bool:
        """Whether the stopwatch is currently accumulating time."""
        return self._start is not None

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


def format_duration(seconds: float) -> str:
    """Render seconds as a human-readable string (``1.23 s``, ``45 ms``...).

    Tiny negative values in ``(-1e-9, 0)`` are floating-point noise
    (they arise when a span's self-time is computed as total minus
    children) and are clamped to zero; anything more negative is a
    caller bug and still raises.
    """
    if -1e-9 < seconds < 0:
        seconds = 0.0
    if seconds < 0:
        raise ValueError(f"duration must be >= 0, got {seconds}")
    if seconds >= 60.0:
        minutes, rem = divmod(seconds, 60.0)
        return f"{int(minutes)} min {rem:.1f} s"
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f} ms"
    return f"{seconds * 1e6:.0f} us"
