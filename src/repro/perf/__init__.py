"""Kernel-cache layer: incremental computation and buffer reuse.

The serial per-frame budget is dominated by the capture splat renderer
and the codec, which redo work that is identical frame to frame.  This
package holds the caches that remove the redundancy:

- :class:`~repro.perf.capture.CachedFrameSource` -- incremental capture:
  static scene points are projected through each camera once and their
  splat arrays reused every frame (``repro.capture.renderer.ProjectionCache``
  does the per-camera caching).
- :class:`~repro.perf.scratch.ScratchArena` -- codec scratch: one
  stream's hit/miss-counted reads of the process-wide weight matrices,
  quantization divisors and motion offset tables.
- :class:`~repro.perf.culling.CullCache` -- one frame's visibility
  table, built from per-pixel point grids that every cache culling the
  same capture shares.

The codec tables and the point grids are shared process-wide and
read-only (the tables kept for the process's life, a grid only
while some cache culls its capture).  Everything else belongs to one
session (or fleet) and is touched from its thread only.  PointSSIM
caches nothing: :mod:`repro.metrics.pointssim` keeps no state between
calls.
"""
