"""The stage runtime: timed, traceable stages and the batch plane.

- :mod:`repro.runtime.stage` -- :class:`Stage` (instrumented unit of
  per-frame work) and :class:`StageGraph` (a chain run in-line; the
  session is the scheduler);
- :mod:`repro.runtime.batchplane` -- cross-session batched kernels;
- :mod:`repro.runtime.profile` -- stage-timing and cache-counter tables
  for ``--profile``.
"""
