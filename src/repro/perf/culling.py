"""Per-frame visibility table for frustum culling.

A conference frame asks one question twice: which pixels of which camera
lie inside which receiver's predicted frustum.  The union cull
(``repro.core.multiway.cull_views_union``) keeps a pixel some receiver
sees; the SFU's forward stage (``repro.sfu.node.SFUNode.forward``) then
needs, per receiver, how many of those pixels it sees.  Both are reads
of one boolean table

    ``inside[r, c, y, x]``   shape ``(R, C, H, W)``

built once per conference-frame: the receivers' world-frame plane rows
``(R, 6, 4)`` are carried into every camera's local frame in one
batched transform ``(R, C, 6, 4)`` and tested against the stacked
per-camera pixel grids ``(C, H, W, 3)`` by the one six-plane kernel,
:func:`repro.geometry.frustum.planes_contain`.  The two-party sender's
cull (``repro.prediction.culling.cull_views``) is the same build with
``R = 1``.

:class:`CullCache` owns the table and the inputs that make it cheap:

- ``camera.extrinsics.world_to_camera`` -- a 4x4 inversion recomputed
  on every property access, but constant for a calibrated rig; kept for
  the cache's lifetime;
- ``camera.local_points(depth)`` -- the (H, W, 3) per-pixel ray scale,
  identical across every cull of the same capture instant (culling
  only *zeroes* depth pixels, so all depth images derived from one
  capture agree wherever depth is nonzero -- and zero-depth pixels are
  masked out by the caller's ``valid`` mask anyway); kept per frame;
- the table itself, kept until the next frame (R*C*H*W bools) and
  handed back whenever the same plane rows are asked about again.

Same contract as every cache in this package: the table is bit for bit
what an uncached build returns, process-local, hit/miss counted.  A
(receiver, camera) row that had to be built is a miss, a row read back
from the table is a hit; point grids count as they always did.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.frustum import planes_contain, transform_planes
from repro.perf.counters import CacheCounters

__all__ = ["CullCache"]


class CullCache:
    """The visibility table of one frame, and the memos it is built from.

    Per-camera ``world_to_camera`` matrices persist for the cache's
    lifetime (rig calibration is fixed); per-pixel point grids and the
    table are scoped to one frame sequence and dropped on
    :meth:`begin_frame`.

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
        self._table: tuple[np.ndarray, np.ndarray] | None = None

    def begin_frame(self, sequence: int) -> None:
        """Drop per-frame memos when a new capture instant starts."""
        if sequence != self._sequence:
            self._sequence = sequence
            self._points.clear()
            self._table = None

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

    def visibility(self, cameras, depths, planes: np.ndarray) -> np.ndarray:
        """``inside[r, c, y, x]``: pixel of camera ``c`` in frustum ``r``.

        ``planes`` are world-frame rows ``(R, 6, 4)``; ``depths`` one
        depth image per camera, any derivative of this frame's capture.
        Validity (nonzero depth) is *not* folded in: it differs between
        the raw capture and its culled derivatives, so callers and it
        with their own mask.  Asking again about the same rows within a
        frame returns the table already built; treat it as read-only.
        """
        if self._table is not None:
            built_for, inside = self._table
            if np.array_equal(built_for, planes):
                self.counters.hit(inside.shape[0] * inside.shape[1])
                return inside
        points = np.stack(
            [
                self.local_points(camera, depth_mm)[0]
                for camera, depth_mm in zip(cameras, depths)
            ]
        )
        transforms = np.stack([self.world_to_camera(camera) for camera in cameras])
        local = transform_planes(planes[:, None], transforms)
        count, height, width = points.shape[:3]
        inside = planes_contain(local, points.reshape(count, -1, 3)).reshape(
            len(planes), count, height, width
        )
        self.counters.miss(len(planes) * count)
        self._table = (planes, inside)
        return inside
