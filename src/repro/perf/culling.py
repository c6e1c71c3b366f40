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
- ``camera.local_points(depth)`` -- the (H, W, 3) per-pixel point grid.
  It is a property of the capture, not of the cache: a fleet's
  conferences all cull the one shared capture, so the grid is built
  once per camera per capture and every cache culling that capture
  reads the same read-only array.  It is keyed by the capture's depth
  image itself (object identity, never a sequence number: a
  stale-camera fault makes two captures with one sequence),
  and lives only while some cache holds it for its current frame;
- the table itself, kept until the next frame (R*C*H*W bools) and
  handed back whenever the same plane rows are asked about again.

Within a frame a cache reuses the first grid it read per camera for
every depth image it is offered -- the raw capture and its culled
derivatives agree wherever depth is nonzero (culling only *zeroes*
pixels), and zero-depth pixels are masked out by the caller's ``valid``
mask anyway.

Same contract as every cache in this package: the table is bit for bit
what an uncached build returns, hit/miss counted per cache.  A
(receiver, camera) row that had to be built is a miss, a row read back
from the table is a hit; a camera's first grid read in a frame is a
miss and later ones hit, whether or not another cache built the grid.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.geometry.frustum import planes_contain, transform_planes
from repro.perf.counters import CacheCounters

__all__ = ["CullCache"]


class _PointGrid:
    """One camera's point grid of one depth image.

    It holds the image and the camera it was built from, so the ids in
    its key cannot name another object while it lives.
    """

    __slots__ = ("points", "depth_mm", "camera", "__weakref__")

    def __init__(self, camera, depth_mm) -> None:
        self.depth_mm = depth_mm
        self.camera = camera
        self.points, _ = camera.local_points(depth_mm)
        self.points.setflags(write=False)


# Every live point grid, by (depth image, camera) identity.  Weak: a
# grid goes when the last cache holding it for its frame moves on.
# Two threads racing to build one grid build equal ones, so no lock.
_GRIDS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _point_grid(camera, depth_mm) -> _PointGrid:
    """The shared grid of ``depth_mm`` through ``camera``, built once."""
    key = (id(depth_mm), id(camera))
    grid = _GRIDS.get(key)
    if grid is None:
        grid = _PointGrid(camera, depth_mm)
        _GRIDS[key] = grid
    return grid


class CullCache:
    """The visibility table of one frame, and the memos it is built from.

    Per-camera ``world_to_camera`` matrices persist for the cache's
    lifetime (rig calibration is fixed); the frame's point grids and
    table are scoped to one capture and dropped when
    :meth:`begin_frame` is handed another one, or on :meth:`end_frame`.
    """

    def __init__(self) -> None:
        self.counters = CacheCounters("cull_projection")
        self._capture = None
        self._w2c: dict[int, np.ndarray] = {}
        self._points: dict[int, _PointGrid] = {}
        self._table: tuple[np.ndarray, np.ndarray] | None = None

    def begin_frame(self, capture) -> None:
        """Start culling ``capture`` (compared by identity, never by
        sequence): per-frame memos of any other capture are dropped."""
        if capture is not self._capture:
            self.end_frame()
            self._capture = capture

    def end_frame(self) -> None:
        """Drop every per-frame memo: the capture, its grids, the table."""
        self._capture = None
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
        """``camera.local_points``, its read-only grid shared per capture.

        The validity mask is always computed fresh from ``depth_mm`` --
        it is the part that differs between the raw capture and its
        culled derivatives, and it is cheap.
        """
        key = id(camera)
        grid = self._points.get(key)
        if grid is None:
            self.counters.miss()
            grid = self._points[key] = _point_grid(camera, depth_mm)
        else:
            self.counters.hit()
        return grid.points, np.asarray(depth_mm) > 0

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
