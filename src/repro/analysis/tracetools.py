"""Trace-driven critical-path analysis and before/after diffing.

Consumes the span JSONL exports produced by :mod:`repro.obs.export`
(``python -m repro run --trace-jsonl out.jsonl``) and answers the two
questions a performance change raises:

- *where does the time go?* -- :func:`critical_path` reconstructs the
  per-frame critical path from the wall-clock stage spans (stages run
  sequentially within a frame, so the path is the ordered stage chain
  and its length the sum of stage durations), folding each stage's
  spans across frames through the same
  :func:`~repro.obs.timeline.stage_timings` view a report reads, and
  :func:`format_stage_table` prints it as the same table ``run
  --profile`` prints;
- *what did a change do?* -- :func:`diff_critical_paths` lines up two
  reconstructions (before/after) and names the stages that regressed
  or improved, by how much, and how the end-to-end critical path
  moved.

The CLI front end is ``python -m repro analyze-trace A.jsonl B.jsonl``
(one file prints the path; two diff them); benchmarks commit these
diffs next to their numbers so a speedup claim is traceable to the
stages that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.export import read_spans_jsonl
from repro.obs.span import CLOCK_WALL, Span
from repro.obs.timeline import STAGE_CATEGORIES, stage_timings
from repro.runtime.stage import StageTiming

__all__ = [
    "CriticalPath",
    "StageDelta",
    "CriticalPathDiff",
    "critical_path",
    "critical_path_from_jsonl",
    "diff_critical_paths",
    "format_critical_path",
    "format_diff",
    "format_stage_table",
]

# A stage moving less than this (relative) is reported as unchanged:
# wall-clock spans jitter, and a diff full of ±2% noise buries the
# signal the tool exists to surface.
DEFAULT_REL_TOLERANCE = 0.05


@dataclass
class CriticalPath:
    """Per-stage aggregation of a trace's frame critical paths."""

    stages: dict[str, StageTiming]
    frames: int

    @property
    def total_s(self) -> float:
        """Sum over frames of that frame's critical-path length."""
        return sum(timing.total_s for timing in self.stages.values())

    def ordered(self) -> list[StageTiming]:
        """Stages, heaviest first."""
        return sorted(self.stages.values(), key=lambda s: -s.total_s)


def critical_path(
    spans: list[Span], categories: tuple = STAGE_CATEGORIES
) -> CriticalPath:
    """Reconstruct the per-stage critical path from a span list.

    The stages are :func:`~repro.obs.timeline.stage_timings` of every
    name in ``categories``.  Stages within one frame run sequentially
    in the runtime, so a frame's critical-path length is the sum of its
    stage durations; the aggregate keys stages by name across frames.
    Spans without a trace id count toward stage totals but not the
    frame denominator.
    """
    frames = {
        span.trace_id
        for span in spans
        if span.clock == CLOCK_WALL and span.category in categories and not span.open
    }
    frames.discard(None)
    return CriticalPath(stage_timings(spans, None, categories), len(frames))


def critical_path_from_jsonl(
    path, categories: tuple = STAGE_CATEGORIES
) -> CriticalPath:
    """Load a span JSONL export and reconstruct its critical path."""
    return critical_path(read_spans_jsonl(path), categories=categories)


@dataclass
class StageDelta:
    """One stage's before/after movement."""

    name: str
    before_s: float
    after_s: float
    before_count: int
    after_count: int
    verdict: str  # "regressed" | "improved" | "unchanged" | "added" | "removed"

    @property
    def delta_s(self) -> float:
        return self.after_s - self.before_s

    @property
    def ratio(self) -> float:
        """after / before (inf for added stages)."""
        if self.before_s <= 0.0:
            return float("inf") if self.after_s > 0.0 else 1.0
        return self.after_s / self.before_s


@dataclass
class CriticalPathDiff:
    """A full before/after critical-path comparison."""

    before: CriticalPath
    after: CriticalPath
    deltas: list[StageDelta]

    @property
    def regressed(self) -> list[StageDelta]:
        return [d for d in self.deltas if d.verdict in ("regressed", "added")]

    @property
    def improved(self) -> list[StageDelta]:
        return [d for d in self.deltas if d.verdict in ("improved", "removed")]

    @property
    def speedup(self) -> float:
        """End-to-end critical-path speedup (before / after)."""
        if self.after.total_s <= 0.0:
            return float("inf") if self.before.total_s > 0.0 else 1.0
        return self.before.total_s / self.after.total_s


def diff_critical_paths(
    before: CriticalPath,
    after: CriticalPath,
    rel_tolerance: float = DEFAULT_REL_TOLERANCE,
) -> CriticalPathDiff:
    """Line up two critical paths and classify every stage's movement.

    A stage regresses/improves when its total moves by more than
    ``rel_tolerance`` of the *before* total (stages only present on one
    side are "added"/"removed").  Deltas are sorted by absolute time
    moved, so the first entries are the stages that matter.
    """
    names = list(
        dict.fromkeys(list(before.stages) + list(after.stages))
    )  # insertion-ordered union
    deltas = []
    for name in names:
        b = before.stages.get(name)
        a = after.stages.get(name)
        before_s = b.total_s if b else 0.0
        after_s = a.total_s if a else 0.0
        if b is None:
            verdict = "added"
        elif a is None:
            verdict = "removed"
        else:
            threshold = rel_tolerance * max(before_s, 1e-12)
            if after_s > before_s + threshold:
                verdict = "regressed"
            elif after_s < before_s - threshold:
                verdict = "improved"
            else:
                verdict = "unchanged"
        deltas.append(
            StageDelta(
                name=name,
                before_s=before_s,
                after_s=after_s,
                before_count=b.count if b else 0,
                after_count=a.count if a else 0,
                verdict=verdict,
            )
        )
    deltas.sort(key=lambda d: -abs(d.delta_s))
    return CriticalPathDiff(before=before, after=after, deltas=deltas)


def format_stage_table(timings, fps: float | None = None) -> str:
    """Render ``timings`` (:class:`StageTiming`s) as the per-stage
    service-time table ``run --profile`` and ``analyze-trace`` print.

    With ``fps`` given, each row is checked against the paper's design
    rule -- "each stage incurs a delay per frame of less than one
    inter-frame interval" -- and flagged when it would bound throughput
    below the capture rate.
    """
    header = f"{'stage':<16s} {'n':>5s} {'mean ms':>9s} {'p50 ms':>9s} {'p95 ms':>9s} {'max ms':>9s} {'total s':>9s}"
    if fps is not None:
        header += "  sustains"
    lines = [header, "-" * len(header)]
    timings = list(timings)
    for timing in timings:
        seconds = [timing.mean_s, *map(timing.percentile_s, (50.0, 95.0, 100.0))]
        row = f"{timing.name:<16s} {timing.count:>5d}"
        row += "".join(f" {value * 1e3:>9.2f}" for value in seconds)
        row += f" {timing.total_s:>9.3f}"
        if fps is not None:
            row += f"  {'yes' if timing.mean_s <= 1.0 / fps else 'NO':>8s}"
        lines.append(row)
    total = sum(timing.total_s for timing in timings)
    lines.append("-" * len(header))
    lines.append(f"{'sum':<16s} {'':>5s} {'':>9s} {'':>9s} {'':>9s} {'':>9s} {total:>9.3f}")
    return "\n".join(lines)


def format_critical_path(path: CriticalPath, title: str = "critical path") -> str:
    """Human-readable per-stage breakdown, heaviest first."""
    return (
        f"{title}: {path.total_s * 1e3:.1f} ms over {path.frames} frames\n"
        + format_stage_table(path.ordered())
    )


def format_diff(diff: CriticalPathDiff) -> str:
    """Human-readable before/after stage diff, biggest movers first."""
    lines = [
        f"critical path: {diff.before.total_s * 1e3:.1f} ms -> "
        f"{diff.after.total_s * 1e3:.1f} ms "
        f"(speedup {diff.speedup:.2f}x)",
        f"{'stage':16s} {'verdict':>10s} {'before ms':>10s} {'after ms':>10s} "
        f"{'delta ms':>9s} {'ratio':>7s}",
    ]
    for delta in diff.deltas:
        ratio = f"{delta.ratio:.2f}x" if delta.ratio != float("inf") else "new"
        lines.append(
            f"{delta.name:16s} {delta.verdict:>10s} {delta.before_s * 1e3:10.2f} "
            f"{delta.after_s * 1e3:10.2f} {delta.delta_s * 1e3:9.2f} {ratio:>7s}"
        )
    regressed = ", ".join(d.name for d in diff.regressed) or "none"
    improved = ", ".join(d.name for d in diff.improved) or "none"
    lines.append(f"regressed: {regressed}")
    lines.append(f"improved:  {improved}")
    return "\n".join(lines)
