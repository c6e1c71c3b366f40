"""Unified observability layer: span tracing + one metrics registry.

``repro.obs`` joins the replay's telemetry -- per-stage service times,
cache hit/miss counters and structured ``FaultEvent`` streams -- into
one causally-linked, per-frame timeline:

- :class:`Span` / :class:`Tracer`: per-frame trace contexts (one trace
  per capture sequence) with explicit, injectable clocks.  Wall-clock
  spans measure real work (stages, worker calls); sim-clock spans place
  transport and playout on the session's simulated timeline.  Traces
  are deterministic under a :class:`FakeClock`.
- :class:`MetricsRegistry`: counters, gauges, and histograms with
  exact streaming quantiles; cache counters and the channel write
  themselves into it (``metrics_into``) and the session adds its stage
  timings.
- Exporters: JSONL and Chrome ``trace_event`` JSON (loads in Perfetto
  / ``chrome://tracing``), plus a per-frame timeline summary attached
  to :class:`~repro.core.stats.SessionReport`.

Every scheme's replay records on one tracer, always: a stage item is
one span, and the report's stage timings are read off those spans, so
there is one clock per stage.  The spans never steer a replay; a
report's fields are the same bytes however long its spans took.  See
DESIGN.md section 10 for the span taxonomy (frame -> stage -> worker)
and the context-propagation rule onto the quality lane's scoring
thread.
"""
