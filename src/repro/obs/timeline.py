"""Views of a session's span set: per-stage timings and per-frame rows.

The trace is the one record of where a replay's time went.
:func:`stage_timings` folds it into one :class:`StageTiming` per stage
-- Table 6's per-stage latency breakdown, read by the report, ``run
--profile`` and ``analyze-trace`` alike -- and :func:`frame_timelines`
collapses it into one row per frame, stage by stage, the per-frame
analogue :class:`~repro.core.stats.SessionReport` exposes.
"""

from __future__ import annotations

from repro.obs.span import CLOCK_WALL, Span
from repro.runtime.stage import StageTiming

__all__ = ["STAGE_CATEGORIES", "stage_timings", "frame_timelines", "format_timeline"]

# Wall-clock span categories that constitute executed pipeline work.
STAGE_CATEGORIES = ("stage",)


def stage_timings(
    spans: list[Span], names, categories: tuple = STAGE_CATEGORIES
) -> dict[str, StageTiming]:
    """Per-item service times of each stage, read off a span list.

    Only closed wall-clock spans of ``categories`` count: sim-clock
    spans (frame roots, transport, render, fault instants) describe the
    simulated session, not executed work.  Each name's samples keep span
    order.  ``names`` fixes the rows and their order -- a named stage
    that served nothing keeps a count-0 row, other names are left out;
    None takes every name, in order of first appearance.
    """
    samples: dict[str, list[float]] = {name: [] for name in names or ()}
    for span in spans:
        if span.clock != CLOCK_WALL or span.category not in categories or span.open:
            continue
        if names is None or span.name in samples:
            samples.setdefault(span.name, []).append(span.duration_s)
    return {name: StageTiming(name, tuple(times)) for name, times in samples.items()}


def frame_timelines(spans: list[Span]) -> dict[int, dict]:
    """One summary dict per frame sequence.

    Each entry carries the frame root's sim-clock lifetime
    (``start_s``/``end_s``/``status``), per-stage wall milliseconds
    (``stages``), sim-clock transport milliseconds per stream
    (``transport_ms``), and the frame's fault instants (``events``).
    Off-thread ``worker`` spans (the quality lane's scoring) are not
    summarized.
    """
    timelines: dict[int, dict] = {}

    def entry(sequence: int) -> dict:
        return timelines.setdefault(
            sequence,
            {
                "start_s": None,
                "end_s": None,
                "status": None,
                "stages": {},
                "transport_ms": {},
                "events": [],
            },
        )

    for span in spans:
        if span.trace_id is None or span.category == "worker":
            continue
        row = entry(span.trace_id)
        duration_ms = span.duration_s * 1e3
        if span.category == "frame":
            row["start_s"] = span.start_s
            row["end_s"] = span.end_s
            row["status"] = span.status
            row.update(
                {key: value for key, value in span.attrs.items() if key != "instant"}
            )
        elif span.instant:
            row["events"].append(span.name)
        elif span.category == "transport":
            row["transport_ms"][span.name] = (
                row["transport_ms"].get(span.name, 0.0) + duration_ms
            )
        else:
            # Wall-clock stages; sim-clock ones (render) keep sim milliseconds.
            row["stages"][span.name] = row["stages"].get(span.name, 0.0) + duration_ms
    return dict(sorted(timelines.items()))


def format_timeline(timelines: dict[int, dict], limit: int | None = None) -> str:
    """Render the per-frame timeline as a compact table."""
    if not timelines:
        return "(no trace recorded)"
    stage_names: list[str] = []
    for row in timelines.values():
        for name in row["stages"]:
            if name not in stage_names:
                stage_names.append(name)
    header = f"{'frame':>5s} {'status':<10s} " + " ".join(
        f"{name[:9]:>9s}" for name in stage_names
    )
    lines = [header + "   (ms per stage)", "-" * len(header)]
    for sequence, row in timelines.items():
        if limit is not None and sequence >= limit:
            lines.append(f"... ({len(timelines) - limit} more frames)")
            break
        cells = " ".join(
            f"{row['stages'].get(name, 0.0):>9.2f}" for name in stage_names
        )
        lines.append(f"{sequence:>5d} {str(row['status']):<10s} {cells}")
    return "\n".join(lines)
