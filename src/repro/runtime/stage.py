"""Stages and the stage graph.

A :class:`Stage` wraps one unit of per-frame work and records each item
it serves as one span on the replay's tracer (:mod:`repro.obs`).  The
trace is the stage's only record: a stage keeps no spans, and
:func:`repro.obs.timeline.stage_timings` reads the per-item service
times (:class:`StageTiming`) off the trace.  A :class:`StageGraph`
chains stages and runs them in-line: one item traverses the whole
chain before the next enters.  The caller is the scheduler (see
DESIGN.md section 8 for why LiVo's stage-per-thread model, appendix
A.1, is not run here).

The tracer keeps every span, so stages serve finite replays (the
two-party session and the baselines); the multi-party tick that a
service hosts indefinitely calls the SFU node directly instead.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Stage", "StageGraph", "StageTiming"]


@dataclass(frozen=True)
class StageTiming:
    """Per-item service times of one stage, in seconds (read-only)."""

    name: str
    samples: tuple[float, ...]

    @property
    def count(self) -> int:
        """Number of items this stage has served."""
        return len(self.samples)

    @property
    def total_s(self) -> float:
        """Total busy time."""
        return float(sum(self.samples))

    @property
    def mean_s(self) -> float:
        """Mean per-item service time."""
        return self.total_s / self.count if self.samples else 0.0

    def percentile_s(self, q: float) -> float:
        """Service-time percentile (nearest-rank, no numpy dependency;
        ``q`` = 100 is the worst case)."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
        return float(ordered[rank])


class Stage:
    """One named unit of per-frame work, one span per item.

    ``fn`` maps an item to an item; everything it does -- fault
    injection at the stage's boundary included (see
    :mod:`repro.faults.boundary`) -- is inside the item's span.  The
    span opens on ``tracer`` under the item's frame trace: ``seq_fn``
    extracts the frame sequence from an item that does not carry it as
    an ``item.sequence`` attribute.  Stages run in-line, one item at a
    time, so ``span`` is the span of the item in flight (the last one
    served once ``fn`` returns).
    """

    def __init__(self, name: str, fn, tracer, seq_fn=None) -> None:
        self.name = name
        self.fn = fn
        self.tracer = tracer
        self.seq_fn = seq_fn
        self.span = None

    def __call__(self, item):
        tracer = self.tracer
        sequence = (
            self.seq_fn(item) if self.seq_fn is not None else getattr(item, "sequence", None)
        )
        span = self.span = tracer.start_span(
            self.name,
            category="stage",
            trace_id=sequence,
            parent_id=tracer.frame_root(sequence),
        )
        try:
            item = self.fn(item)
        except BaseException:
            tracer.end_span(span, status="error")
            raise
        tracer.end_span(span)
        return item


class StageGraph:
    """A linear chain of stages, run in-line.

    One item traverses every stage before the next is admitted -- the
    schedule the byte-identical determinism guarantees are stated
    against.  Work a stage hands off (the session's PointSSIM jobs)
    goes to the session's scoring thread, not through the graph.
    """

    def __init__(self, stages: list[Stage]) -> None:
        if not stages:
            raise ValueError("need at least one stage")
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names: {names}")
        self.stages = list(stages)

    def run_item(self, item):
        """Push one item through every stage, in-line (deterministic)."""
        for stage in self.stages:
            item = stage(item)
        return item
