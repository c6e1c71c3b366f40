"""The stage runtime: traced stages and the batch plane.

- :mod:`repro.runtime.stage` -- :class:`Stage` (a unit of per-frame
  work, one span per item; stage timings are a view of the trace,
  :func:`repro.obs.timeline.stage_timings`) and :class:`StageGraph`
  (a chain run in-line; the session is the scheduler);
- :mod:`repro.runtime.batchplane` -- cross-session batched kernels.
"""
