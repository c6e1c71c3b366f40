"""Unified observability layer: span tracing + one metrics registry.

``repro.obs`` turns the repo's previously disjoint telemetry channels
-- per-stage ``perf_counter`` tables (PR 2), kernel-cache hit/miss
counters (PR 3/4), and structured ``FaultEvent`` streams (PR 1) --
into one causally-linked, per-frame timeline:

- :class:`Span` / :class:`Tracer`: per-frame trace contexts (one trace
  per capture sequence) with explicit, injectable clocks.  Wall-clock
  spans measure real work (stages, kernels, worker calls); sim-clock
  spans place transport and playout on the session's simulated
  timeline.  Traces are deterministic under a :class:`FakeClock`.
- :class:`MetricsRegistry`: counters, gauges, and histograms with
  exact streaming quantiles; cache and transport batch counters write
  themselves into it (``metrics_into``) and the session adds its stage
  timings.
- Exporters: JSONL and Chrome ``trace_event`` JSON (loads in Perfetto
  / ``chrome://tracing``), plus a per-frame timeline summary attached
  to :class:`~repro.core.stats.SessionReport`.

The layer is default-off (``SessionConfig.trace``); with tracing
disabled every instrumentation site is a single ``is None`` check and
reports are byte-identical to an uninstrumented run.  See DESIGN.md
section 10 for the span taxonomy (frame -> stage -> kernel) and the
context-propagation rule into the quality lane's pool threads.
"""

from repro.obs.clock import Clock, FakeClock, WallClock
from repro.obs.export import (
    chrome_trace_events,
    read_spans_jsonl,
    span_from_dict,
    span_to_dict,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.span import (
    CLOCK_SIM,
    CLOCK_WALL,
    STATUS_ERROR,
    STATUS_INCOMPLETE,
    STATUS_OK,
    Span,
)
from repro.obs.timeline import format_timeline, frame_timelines
from repro.obs.tracer import Tracer

__all__ = [
    "Clock",
    "FakeClock",
    "WallClock",
    "Span",
    "Tracer",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_spans_jsonl",
    "read_spans_jsonl",
    "span_to_dict",
    "span_from_dict",
    "frame_timelines",
    "format_timeline",
    "CLOCK_WALL",
    "CLOCK_SIM",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_INCOMPLETE",
]
