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
  exact streaming quantiles; cache counters and the channel write
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
