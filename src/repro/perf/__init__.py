"""Kernel-cache layer: incremental computation and buffer reuse.

The serial per-frame budget is dominated by the capture splat renderer
and the codec, which redo work that is identical frame to frame.  This
package holds the caches that remove the redundancy:

- :class:`~repro.perf.capture.CachedFrameSource` -- incremental capture:
  static scene points are projected through each camera once, into a
  static z-buffer image reused every frame
  (``repro.capture.renderer.ProjectionCache`` keeps it per camera), and
  finished frames are memoized by sequence.
- :mod:`~repro.perf.scratch` -- codec scratch: the process-wide memo
  of weight matrices, quantization divisors and motion offset tables
  (shared tables, not a cache per stream, so it keeps no counters).

Only the capture cache counts hits and misses (``capture_projection``):
a hit there skips work a miss does, and that tally is the
``cache_stats`` a report or a fleet carries.

The codec tables are shared process-wide and read-only, kept for the
process's life.  Everything else belongs to one session (or fleet) and
is touched from its thread only.  Culling keeps nothing between calls:
:func:`repro.prediction.culling.visibility` builds a frame's point grids
and table and hands the table back to its caller.  PointSSIM caches
nothing either: :mod:`repro.metrics.pointssim` keeps no state between
calls.
"""
