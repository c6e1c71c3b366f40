"""Analysis helpers: resilience summaries, result tables, trace tools.

- :mod:`repro.analysis.resilience` -- chaos-suite robustness numbers
  (MTTR, frames survived degraded, crash-free rate);
- :mod:`repro.analysis.tables` -- plain-text table formatting used by
  the CLI, examples, and benches;
- :mod:`repro.analysis.tracetools` -- critical paths from span exports
  and their before/after diff (``analyze-trace``), and the one
  per-stage table ``analyze-trace`` and ``run --profile`` print.
"""
