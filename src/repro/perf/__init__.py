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
- :class:`~repro.perf.culling.CullCache` -- one frame's visibility
  table, built from per-pixel point grids that every cache culling the
  same capture shares.

Only the two caches count hits and misses (``capture_projection``,
``cull_projection``): a hit there skips work a miss does, and those
tallies are the ``cache_stats`` a report or a fleet carries.

The codec tables and the point grids are shared process-wide and
read-only (the tables kept for the process's life, a grid only
while some cache culls its capture).  Everything else belongs to one
session (or fleet) and is touched from its thread only.  PointSSIM
caches nothing: :mod:`repro.metrics.pointssim` keeps no state between
calls.
"""
