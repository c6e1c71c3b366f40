"""Per-frame projection/transform memo for frustum culling.

Union culling (``repro.core.multiway.cull_views_union``) and the SFU's
per-receiver re-cull (``repro.sfu.node.SFUNode.forward``) both walk the
same (camera, frustum) grid every frame.  Three quantities in that walk
are pure functions of state that changes rarely or not at all:

- ``camera.extrinsics.world_to_camera`` -- a 4x4 inversion recomputed
  on every property access, but constant for a calibrated rig;
- ``camera.local_points(depth)`` -- the (H, W, 3) per-pixel ray scale,
  identical across every cull of the same capture instant (culling
  only *zeroes* depth pixels, so all depth images derived from one
  capture agree wherever depth is nonzero -- and zero-depth pixels are
  masked out by the caller's ``valid`` mask anyway);
- ``frustum.transformed(world_to_camera)`` -- six plane transforms per
  (frustum, camera) pair, reused when the SFU re-culls the same
  predicted frustum against the cached union geometry.

:class:`CullCache` memoizes all three with the same contract as every
cache in this package: byte-identical outputs to the uncached path
(the memoized values are bit-for-bit the ones the direct calls would
produce), process-local, hit/miss counted.
"""

from __future__ import annotations

import numpy as np

from repro.perf.counters import CacheCounters

__all__ = ["CullCache"]


class CullCache:
    """Memo for the per-(camera, frustum) work of one cull pass.

    Per-camera ``world_to_camera`` matrices persist for the cache's
    lifetime (rig calibration is fixed); per-pixel point grids and
    transformed frustums are scoped to one frame sequence and dropped
    on :meth:`begin_frame`.

    The point-grid memo relies on a documented invariant of the culling
    pipeline: every depth image offered for one (camera, sequence) pair
    agrees on its nonzero pixels (culling only zeroes pixels, never
    rewrites them), and callers mask with their own fresh ``valid``
    mask, so reusing the first-seen grid is exact.
    """

    def __init__(self) -> None:
        self.counters = CacheCounters("cull_projection")
        self._sequence: int | None = None
        self._w2c: dict[int, np.ndarray] = {}
        self._points: dict[int, np.ndarray] = {}
        self._frustums: dict[tuple[int, int], object] = {}

    def begin_frame(self, sequence: int) -> None:
        """Drop per-frame memos when a new capture instant starts."""
        if sequence != self._sequence:
            self._sequence = sequence
            self._points.clear()
            self._frustums.clear()

    def world_to_camera(self, camera) -> np.ndarray:
        """The camera's (cached) world-to-camera transform."""
        key = id(camera)
        cached = self._w2c.get(key)
        if cached is None:
            cached = camera.extrinsics.world_to_camera
            self._w2c[key] = cached
        return cached

    def local_points(self, camera, depth_mm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``camera.local_points`` with the point grid memoized per frame.

        The validity mask is always computed fresh from ``depth_mm`` --
        it is the part that differs between the raw capture and its
        culled derivatives, and it is cheap.
        """
        key = id(camera)
        points = self._points.get(key)
        if points is None:
            self.counters.miss()
            points, valid = camera.local_points(depth_mm)
            self._points[key] = points
            return points, valid
        self.counters.hit()
        return points, np.asarray(depth_mm) > 0

    def transformed_frustum(self, frustum, camera):
        """``frustum.transformed(world_to_camera)``, memoized per frame."""
        key = (id(frustum), id(camera))
        cached = self._frustums.get(key)
        if cached is None:
            self.counters.miss()
            cached = frustum.transformed(self.world_to_camera(camera))
            self._frustums[key] = cached
            return cached
        self.counters.hit()
        return cached
