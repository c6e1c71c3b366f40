"""Stages and the stage graph (appendix A.1's execution model).

"LiVo consists of several stages that run in parallel ... Each stage
has a dedicated thread and is connected to the next stage via a small
inter-stage buffer."  A :class:`Stage` wraps one unit of per-frame work
with wall-clock instrumentation (``perf_counter`` service time per
item); a :class:`StageGraph` chains stages and can run them either
deterministically in-line (one frame traverses the whole chain before
the next enters) or streamed with a dedicated thread per stage and
bounded queues between -- the paper's concurrency model, byte-identical
to the serial schedule because each stage's work is itself
deterministic and items stay in FIFO order.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter

from repro.runtime.queues import BoundedQueue, QueueClosed

__all__ = ["Stage", "StageError", "StageGraph", "StageTiming"]


@dataclass
class StageTiming:
    """Measured per-item service times for one stage, in seconds."""

    name: str
    samples: list = field(default_factory=list)

    def record(self, seconds: float) -> None:
        """Fold in one measured service time."""
        self.samples.append(float(seconds))

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
        """Service-time percentile (nearest-rank, no numpy dependency)."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
        return float(ordered[rank])

    @property
    def p50_s(self) -> float:
        """Median service time."""
        return self.percentile_s(50.0)

    @property
    def p95_s(self) -> float:
        """95th-percentile service time."""
        return self.percentile_s(95.0)

    @property
    def max_s(self) -> float:
        """Worst-case service time."""
        return float(max(self.samples)) if self.samples else 0.0

    def merge(self, other: "StageTiming") -> None:
        """Fold another timing record (same stage, another run) in."""
        self.samples.extend(other.samples)

    def to_dict(self) -> dict:
        """JSON-friendly summary (milliseconds)."""
        return {
            "name": self.name,
            "count": self.count,
            "total_ms": self.total_s * 1e3,
            "mean_ms": self.mean_s * 1e3,
            "p50_ms": self.p50_s * 1e3,
            "p95_ms": self.p95_s * 1e3,
            "max_ms": self.max_s * 1e3,
        }


@dataclass
class StageError:
    """A failed item in streamed mode: carried downstream, never hangs."""

    stage: str
    item: object
    error: Exception


class Stage:
    """One named unit of per-frame work with timing instrumentation.

    ``fn`` maps an item to an item.  ``pre_hooks``/``post_hooks`` run
    before/after ``fn`` at the stage *boundary* -- the seam where fault
    injection and other cross-cutting concerns attach without touching
    the stage body (see :mod:`repro.faults.boundary`).  Hook time is
    measured as part of the stage's service time.
    """

    def __init__(self, name: str, fn, pre_hooks=(), post_hooks=()) -> None:
        self.name = name
        self.fn = fn
        self.pre_hooks = list(pre_hooks)
        self.post_hooks = list(post_hooks)
        self.timing = StageTiming(name)
        # Observability attachment (repro.obs).  ``tracer`` is None by
        # default so the untraced hot path pays a single attribute
        # check; ``seq_fn`` extracts the frame sequence (trace id) from
        # an item when it is not carried as an ``item.sequence``
        # attribute.
        self.tracer = None
        self.seq_fn = None
        self.span_attrs = None

    def attach_tracer(self, tracer, seq_fn=None, attrs=None) -> None:
        """Emit one span per item under the item's frame trace.

        ``attrs`` are attached to every span this stage emits -- fleet
        runs use it to tag each conference's stages with a ``session``
        id so ``analyze-trace --fleet`` can aggregate per session-frame.
        """
        self.tracer = tracer
        self.seq_fn = seq_fn
        self.span_attrs = dict(attrs) if attrs else None

    def __call__(self, item):
        start = perf_counter()
        tracer = self.tracer
        span = None
        if tracer is not None:
            sequence = (
                self.seq_fn(item)
                if self.seq_fn is not None
                else getattr(item, "sequence", None)
            )
            span = tracer.start_span(
                self.name,
                category="stage",
                trace_id=sequence,
                parent_id=tracer.frame_root(sequence),
                attrs=self.span_attrs,
            )
        try:
            for hook in self.pre_hooks:
                item = hook(item)
            item = self.fn(item)
            for hook in self.post_hooks:
                item = hook(item)
        except BaseException:
            if span is not None:
                tracer.end_span(span, status="error")
                span = None
            raise
        finally:
            if span is not None:
                tracer.end_span(span)
            self.timing.record(perf_counter() - start)
        return item


class StageGraph:
    """A linear chain of stages with bounded inter-stage buffers.

    Two schedules are offered:

    - :meth:`run_item` / serial :meth:`run_stream`: the deterministic
      reference schedule -- one item traverses every stage before the
      next is admitted.  This is the mode the byte-identical
      determinism guarantees are stated against.
    - :meth:`run_stream` with ``threaded=True``: one dedicated thread
      per stage, connected by :class:`BoundedQueue` buffers of
      ``queue_capacity`` -- the paper's pipelined model.  Different
      frames overlap across stages; FIFO order is preserved end to
      end, so outputs arrive in input order.

    Work a stage hands off (the session's PointSSIM jobs) goes through
    an executor, not the graph; see
    :mod:`repro.runtime.executors`.  A stage that raises in threaded
    mode emits a :class:`StageError` marker downstream instead of
    wedging the pipeline.
    """

    def __init__(self, stages: list[Stage], queue_capacity: int = 2) -> None:
        if not stages:
            raise ValueError("need at least one stage")
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names: {names}")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        self.stages = list(stages)
        self.queue_capacity = queue_capacity
        self.queues: list[BoundedQueue] = []

    def stage(self, name: str) -> Stage:
        """Look up a stage by name."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(name)

    def run_item(self, item):
        """Push one item through every stage, in-line (deterministic)."""
        for stage in self.stages:
            item = stage(item)
        return item

    def run_stream(self, items, threaded: bool = False) -> list:
        """Push a sequence of items through the whole chain.

        Serial mode is the deterministic reference; threaded mode runs
        the paper's stage-per-thread schedule with bounded buffers.
        Outputs are returned in input order either way; failed items
        appear as :class:`StageError` entries.
        """
        if not threaded:
            results = []
            for item in items:
                try:
                    results.append(self.run_item(item))
                except Exception as error:  # mirror threaded-mode semantics
                    results.append(StageError("<serial>", item, error))
            return results
        return self._run_stream_threaded(items)

    def _run_stream_threaded(self, items) -> list:
        # stage i reads queues[i], writes queues[i+1]; the extra final
        # queue collects finished items.
        self.queues = [
            BoundedQueue(self.queue_capacity) for _ in range(len(self.stages) + 1)
        ]
        sentinel = object()

        def stage_worker(index: int, stage: Stage) -> None:
            source, sink = self.queues[index], self.queues[index + 1]
            while True:
                try:
                    item = source.get()
                except QueueClosed:
                    break
                if item is sentinel:
                    sink.put(sentinel)
                    break
                if isinstance(item, StageError):
                    sink.put(item)  # pass failures through untouched
                    continue
                try:
                    sink.put(stage(item))
                except Exception as error:
                    sink.put(StageError(stage.name, item, error))

        threads = [
            threading.Thread(target=stage_worker, args=(i, s), daemon=True)
            for i, s in enumerate(self.stages)
        ]
        for thread in threads:
            thread.start()

        results: list = []
        collected = threading.Thread(target=self._collect, args=(results, sentinel))
        collected.start()
        try:
            for item in items:
                self.queues[0].put(item)
            self.queues[0].put(sentinel)
        finally:
            collected.join()
            for thread in threads:
                thread.join()
            for queue in self.queues:
                queue.close()
        return results

    def _collect(self, results: list, sentinel) -> None:
        final = self.queues[-1]
        while True:
            try:
                item = final.get()
            except QueueClosed:
                break
            if item is sentinel:
                break
            results.append(item)

    def timings(self) -> dict[str, StageTiming]:
        """Per-stage measured service times, keyed by stage name."""
        return {stage.name: stage.timing for stage in self.stages}

    def max_queue_watermark(self) -> int:
        """Highest occupancy any inter-stage buffer reached (last stream)."""
        return max((queue.high_watermark for queue in self.queues), default=0)
