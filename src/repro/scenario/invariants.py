"""Cross-cutting session invariants, checked on every scenario replay.

These are properties that must hold for *any* run, healthy or chaotic
-- the class of bug a golden diff can miss because both the recording
and the replay share it.  Each violated invariant yields one
human-readable string; an empty list means the report is coherent.

The checks:

- **monotone frames**: frame sequences strictly increase and capture
  times never go backwards;
- **flag consistency**: a frame is rendered XOR stalled XOR skipped XOR
  empty in the combinations the session can actually emit (e.g. a
  skipped tick carries no wire bytes and never renders);
- **no zero-latency losses**: a delivered frame's delivery time is at
  or after its capture time, and a session where nothing was delivered
  reports NaN latency, never 0 (total loss must not read as a perfect
  network);
- **MTTR semantics**: finite and non-negative when at least one
  degradation episode completed, NaN when every episode stayed open,
  0 when the ladder never engaged;
- **ladder hysteresis**: walking the degrade/recover events moves the
  ladder one rung at a time and never outside [0, MAX_LEVEL];
- **no leaked spans**: when a trace rode along, every span was closed
  by the session's final drain.
"""

from __future__ import annotations

import math

from repro.core.stats import SessionReport
from repro.faults.degradation import LEVEL_NORMAL, MAX_LEVEL, _LEVEL_NAMES

__all__ = ["check_report"]

_NAME_TO_LEVEL = {name: level for level, name in _LEVEL_NAMES.items()}


def _ladder_walk_violations(report: SessionReport) -> list[str]:
    """Hysteresis check via the degrade/recover event stream.

    Per-frame level diffs cannot be used: several render deadlines can
    resolve between two capture ticks, legally moving the ladder more
    than one rung between consecutive FrameRecords.  The event stream
    sees every individual transition.
    """
    problems = []
    level = LEVEL_NORMAL
    for event in report.fault_events:
        if event.category not in ("degrade_step", "recover_step"):
            continue
        name = event.detail.rsplit("-> ", 1)[-1].strip()
        new_level = _NAME_TO_LEVEL.get(name)
        if new_level is None:
            problems.append(f"unparseable ladder event detail {event.detail!r}")
            continue
        step = new_level - level
        expected = -1 if event.category == "recover_step" else 1
        if step != expected:
            problems.append(
                f"ladder {event.category} at t={event.time_s:.3f}s jumped "
                f"{level} -> {new_level} (must move exactly {expected:+d})"
            )
        if not LEVEL_NORMAL <= new_level <= MAX_LEVEL:
            problems.append(
                f"ladder left [{LEVEL_NORMAL}, {MAX_LEVEL}] at t={event.time_s:.3f}s"
            )
        level = new_level
    return problems


def check_report(report: SessionReport) -> list[str]:
    """Every violated invariant, as human-readable strings."""
    problems: list[str] = []

    last_sequence = None
    last_capture = None
    delivered = 0
    for frame in report.frames:
        tag = f"frame {frame.sequence}"
        if last_sequence is not None and frame.sequence <= last_sequence:
            problems.append(
                f"{tag}: sequence not strictly increasing (prev {last_sequence})"
            )
        if last_capture is not None and frame.capture_time_s < last_capture:
            problems.append(f"{tag}: capture time went backwards")
        last_sequence = frame.sequence
        last_capture = frame.capture_time_s

        if frame.wire_bytes < 0:
            problems.append(f"{tag}: negative wire bytes")
        if frame.rendered and (frame.stalled or frame.skipped):
            problems.append(f"{tag}: rendered frame marked stalled/skipped")
        if frame.skipped and frame.wire_bytes != 0:
            problems.append(f"{tag}: skipped tick carries wire bytes")
        if frame.empty and frame.rendered:
            problems.append(f"{tag}: empty capture marked rendered")
        if frame.delivery_time_s is not None:
            delivered += 1
            if frame.delivery_time_s < frame.capture_time_s:
                problems.append(f"{tag}: delivered before captured (time travel)")
        elif frame.rendered:
            problems.append(f"{tag}: rendered without a delivery time")

    latency_mean, _, _ = report.latency_stats()
    if delivered == 0 and not math.isnan(latency_mean):
        problems.append(
            "nothing was delivered but latency is "
            f"{latency_mean!r} (total loss must report NaN, not a number)"
        )
    if delivered > 0 and not (math.isfinite(latency_mean) and latency_mean >= 0.0):
        problems.append(f"delivered frames but latency mean is {latency_mean!r}")

    episodes = report.degradation_episodes()
    completed = [end - start for start, end in episodes if end is not None]
    mttr = report.mttr_s
    if completed:
        if not (math.isfinite(mttr) and mttr >= 0.0):
            problems.append(
                f"{len(completed)} completed degradation episode(s) but "
                f"mttr_s={mttr!r} (must be finite and non-negative)"
            )
    elif episodes:
        if not math.isnan(mttr):
            problems.append(
                f"all degradation episodes still open but mttr_s={mttr!r} "
                "(no recovery happened; must be NaN)"
            )
    elif mttr != 0.0:
        problems.append(f"never degraded but mttr_s={mttr!r} (must be 0)")

    problems.extend(_ladder_walk_violations(report))
    for frame in report.frames:
        if not LEVEL_NORMAL <= frame.degradation_level <= MAX_LEVEL:
            problems.append(
                f"frame {frame.sequence}: degradation level "
                f"{frame.degradation_level} outside [{LEVEL_NORMAL}, {MAX_LEVEL}]"
            )

    if report.trace is not None:
        leaked = report.trace.open_spans()
        if leaked:
            names = ", ".join(span.name for span in leaked[:5])
            problems.append(f"{len(leaked)} span(s) left open: {names}")

    return problems
