"""Unified observability layer: span tracing + one metrics registry.

``repro.obs`` records a replay's work -- one span per stage item and
scoring job, one instant per ``FaultEvent`` -- on one causally-linked,
per-frame timeline:

- :class:`Span` / :class:`Tracer`: per-frame trace contexts (one trace
  per capture sequence) with explicit, injectable clocks.  Wall-clock
  spans measure real work (stages, worker calls); sim-clock spans place
  transport and playout on the session's simulated timeline.  Traces
  are deterministic under a :class:`FakeClock`.
- :class:`MetricsRegistry`: counters, gauges, and histograms with
  exact streaming quantiles, holding only what no other record holds;
  producers (the channel, the watchdog, the SFU node, the service)
  write themselves into it (``metrics_into``).
- Views of the trace (:mod:`repro.obs.timeline`): per-stage timings
  (:func:`~repro.obs.timeline.stage_timings`) and per-frame rows.
- Exporters: JSONL and Chrome ``trace_event`` JSON (loads in Perfetto
  / ``chrome://tracing``).

Every scheme's replay records on one tracer, always: a stage item is
one span, the tracer keeps no context and the stages keep no spans, so
the trace is the one record of stage time and the report's stage
timings, ``run --profile`` and ``analyze-trace`` are views of it.  The
spans never steer a replay; a report's fields are the same bytes
however long its spans took.  See DESIGN.md section 10 for the span
taxonomy (frame -> stage -> worker) and how a scoring job names its
parent on the quality lane's scoring thread.
"""
