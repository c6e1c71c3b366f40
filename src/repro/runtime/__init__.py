"""The stage-graph runtime: stages, bounded queues, pluggable executors.

Appendix A.1 describes LiVo's execution model -- one dedicated thread
per stage, small bounded buffers between stages -- and this package is
that model as an engine the sessions actually run on:

- :mod:`repro.runtime.stage` -- :class:`Stage` (instrumented unit of
  per-frame work), :class:`StageGraph` (the chain, serial or
  stage-per-thread streamed);
- :mod:`repro.runtime.queues` -- :class:`BoundedQueue`, the
  backpressure primitive;
- :mod:`repro.runtime.executors` -- pluggable executors: the serial
  deterministic reference and a thread pool;
- :mod:`repro.runtime.profile` -- stage-timing aggregation for
  ``--profile`` and the calibrated latency model
  (:meth:`repro.core.pipeline.StagedPipeline.from_measured`).
"""

from repro.runtime.executors import (
    Executor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
)
from repro.runtime.profile import format_stage_profile, merge_timings
from repro.runtime.queues import BoundedQueue, QueueClosed
from repro.runtime.stage import Stage, StageError, StageGraph, StageTiming

__all__ = [
    "BoundedQueue",
    "Executor",
    "QueueClosed",
    "SerialExecutor",
    "Stage",
    "StageError",
    "StageGraph",
    "StageTiming",
    "ThreadExecutor",
    "format_stage_profile",
    "make_executor",
    "merge_timings",
]
