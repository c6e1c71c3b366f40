"""Graceful degradation: the stall watchdog and its quality ladder.

When the network or the pipeline misbehaves faster than GCC can react,
the hardened session steps down a degradation ladder instead of
stalling indefinitely:

- level 1 (**half fps**): every other capture tick is skipped, halving
  the offered load and giving the bottleneck queue room to drain;
- level 2 (**coarse voxel**): the receiver renders at a coarser voxel
  size, trading density for latency headroom;
- level 3 (**chroma lite**): the color stream's byte budget is cut,
  shifting the remaining bits toward geometry (depth carries the
  immersive experience; section 3.3's split already encodes that
  priority).

The :class:`StallWatchdog` drives transitions: ``WATCHDOG_MISSES``
consecutive missed render deadlines step one level down (never past
``MAX_LEVEL``), and ``RECOVER_HYSTERESIS`` consecutive on-time frames
step one level back up.  The asymmetry (fast down, slow up) is classic
hysteresis -- it prevents oscillating between levels while conditions
are marginal.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "LEVEL_NORMAL",
    "LEVEL_HALF_FPS",
    "LEVEL_COARSE_VOXEL",
    "LEVEL_CHROMA_LITE",
    "MAX_LEVEL",
    "ResilienceConfig",
    "StallWatchdog",
    "level_name",
]

LEVEL_NORMAL = 0
LEVEL_HALF_FPS = 1
LEVEL_COARSE_VOXEL = 2
LEVEL_CHROMA_LITE = 3

# The ladder's bottom rung.
MAX_LEVEL = LEVEL_CHROMA_LITE

# Consecutive missed deadlines that step one rung down, and consecutive
# on-time frames that step one rung back up.
WATCHDOG_MISSES = 4
RECOVER_HYSTERESIS = 8

# The half-fps rung keeps every FPS_DIVISOR-th capture tick, the
# coarse-voxel rung renders at VOXEL_COARSEN times the render voxel,
# and the chroma-lite rung scales the color byte budget by
# CHROMA_BUDGET_SCALE.
FPS_DIVISOR = 2
VOXEL_COARSEN = 2.0
CHROMA_BUDGET_SCALE = 0.5

_LEVEL_NAMES = {
    LEVEL_NORMAL: "normal",
    LEVEL_HALF_FPS: "half-fps",
    LEVEL_COARSE_VOXEL: "coarse-voxel",
    LEVEL_CHROMA_LITE: "chroma-lite",
}


def level_name(level: int) -> str:
    """Human-readable name of a ladder level."""
    return _LEVEL_NAMES.get(level, f"level-{level}")


@dataclass(frozen=True)
class ResilienceConfig:
    """Switches for the hardened session's fault handling.

    ``enabled`` governs the always-safe hardening (skip failed encodes,
    frame-freeze on undecodable pairs, fused partial rigs); disabling
    it reproduces the brittle seed behavior for A/B comparison.
    ``ladder_enabled`` separately gates the stall watchdog and its
    degradation ladder, which trades quality for liveness.
    """

    enabled: bool = True
    ladder_enabled: bool = True


class StallWatchdog:
    """Counts deadline outcomes and walks the degradation ladder.

    Besides the transition logic, the watchdog keeps sim-clock
    time-per-rung accounting (``time_at_level``) when its caller passes
    observation times, and can fold its whole state -- current rung,
    transition counts, seconds per rung -- into a
    :class:`repro.obs.metrics.MetricsRegistry` via :meth:`metrics_into`, so
    scenario diffs and dashboards can assert on ladder behavior.
    """

    def __init__(self) -> None:
        self.level = LEVEL_NORMAL
        self._misses = 0
        self._goods = 0
        self.steps_down = 0
        self.steps_up = 0
        # Sim-clock seconds spent at each rung (only accumulated when
        # observe()/finalize() are given times; deterministic because
        # the session clock is simulated).
        self.time_at_level: dict[int, float] = {}
        self._level_since: float = 0.0

    def _account(self, now: float) -> None:
        """Attribute sim time since the last observation to the rung."""
        elapsed = now - self._level_since
        if elapsed > 0.0:
            self.time_at_level[self.level] = (
                self.time_at_level.get(self.level, 0.0) + elapsed
            )
            self._level_since = now

    def finalize(self, end_s: float) -> None:
        """Close time-per-rung accounting at the session's end time."""
        self._account(end_s)

    def metrics_into(self, registry) -> None:
        """Fold ladder state into a ``repro.obs`` registry.

        Gauges: ``ladder.level`` (final rung), ``ladder.time_at.<rung>_s``
        per rung.  Counters: ``ladder.steps_down`` / ``ladder.steps_up``
        / ``ladder.transitions``.
        """
        registry.gauge("ladder.level").set(float(self.level))
        registry.counter("ladder.steps_down").inc(self.steps_down)
        registry.counter("ladder.steps_up").inc(self.steps_up)
        registry.counter("ladder.transitions").inc(self.steps_down + self.steps_up)
        for level in range(LEVEL_NORMAL, MAX_LEVEL + 1):
            registry.gauge(f"ladder.time_at.{level_name(level)}_s").set(
                self.time_at_level.get(level, 0.0)
            )

    def skips_tick(self, sequence: int) -> bool:
        """Whether the ladder's fps reduction skips this capture tick."""
        return (
            self.level >= LEVEL_HALF_FPS
            and sequence % FPS_DIVISOR != 0
        )

    def voxel_scale(self) -> float:
        """Render-voxel multiplier at the current level."""
        return VOXEL_COARSEN if self.level >= LEVEL_COARSE_VOXEL else 1.0

    def color_budget_scale(self) -> float:
        """Color-stream byte-budget multiplier at the current level."""
        return CHROMA_BUDGET_SCALE if self.level >= LEVEL_CHROMA_LITE else 1.0

    def observe(self, on_time: bool, now: float | None = None) -> int | None:
        """Fold in one render-deadline outcome.

        ``now`` (simulated seconds) enables time-per-rung accounting;
        without it the transition logic is unchanged.  Returns the new
        level when this observation caused a transition, else None.
        """
        if now is not None:
            self._account(now)
        if on_time:
            self._misses = 0
            self._goods += 1
            if self.level > LEVEL_NORMAL and self._goods >= RECOVER_HYSTERESIS:
                self._goods = 0
                self.level -= 1
                self.steps_up += 1
                return self.level
            return None
        self._goods = 0
        self._misses += 1
        if self.level < MAX_LEVEL and self._misses >= WATCHDOG_MISSES:
            self._misses = 0
            self.level += 1
            self.steps_down += 1
            return self.level
        return None
