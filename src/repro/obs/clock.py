"""Injectable clocks for the tracing layer.

Spans take their timestamps from a :class:`Clock` object rather than
calling ``perf_counter`` directly, so tests can substitute a
:class:`FakeClock` and assert exact, deterministic trace output.
"""

from __future__ import annotations

from time import perf_counter

__all__ = ["Clock", "WallClock", "FakeClock"]


class Clock:
    """Minimal clock interface: monotonically non-decreasing seconds."""

    def now(self) -> float:
        raise NotImplementedError


class WallClock(Clock):
    """Real wall time via ``perf_counter`` (one origin for every thread,
    so executor-job spans land on the session's timeline)."""

    def now(self) -> float:
        return perf_counter()


class FakeClock(Clock):
    """Manually advanced clock for deterministic traces in tests."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        """Move time forward; negative steps are rejected."""
        if seconds < 0:
            raise ValueError("clocks do not run backwards")
        self._now += float(seconds)

    def set(self, seconds: float) -> None:
        """Jump to an absolute time at or after the current one."""
        if seconds < self._now:
            raise ValueError("clocks do not run backwards")
        self._now = float(seconds)
