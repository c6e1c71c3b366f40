"""Z-buffer point-splat renderer: scene samples -> per-camera RGB-D images.

This stands in for the physical Kinect sensor: the scene's sampled
surface points are projected through each camera's pinhole model and
splatted into a depth buffer; the nearest point per pixel wins.  Output
is a pixel-aligned color + uint16 millimeter depth pair -- the same
format the Azure Kinect SDK yields after alignment.

The renderer is split into two halves so the kernel-cache layer
(:mod:`repro.perf`) can reuse work across frames:

- :func:`project_splats` -- world points -> visible ``(flat_pixel, z,
  color)`` splat arrays for one camera (pure function of the points);
- :func:`splat_image` -- splat arrays -> the z-buffered, hole-filled
  RGB-D frame.

:class:`ProjectionCache` caches the :func:`project_splats` output of
*static* sample batches per ``(camera, scene epoch)``, merging them with
freshly projected dynamic points each frame.  Because the z-buffer is a
single stable lexsort over the concatenated splat arrays, the cached
path is byte-identical to projecting the full point set from scratch
(asserted by ``TestIncrementalCapture`` under tests/).
"""

from __future__ import annotations

import numpy as np

from repro.capture.rgbd import MultiViewFrame, RGBDFrame
from repro.capture.scene import SampleBatch
from repro.geometry.camera import RGBDCamera
from repro.perf.counters import CacheCounters

__all__ = [
    "render_rgbd",
    "render_views",
    "fill_holes",
    "fill_holes_batch",
    "project_splats",
    "splat_image",
    "ProjectionCache",
]

# 8-neighborhood offsets for hole filling, hoisted out of the loop: the
# accumulation order below must stay fixed -- float sums are applied in
# this order, and reordering would change low bits of the fill values.
_NEIGHBOR_SHIFTS = tuple(
    (dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0)
)


def fill_holes(
    depth: np.ndarray, color: np.ndarray, iterations: int = 2, min_neighbors: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """Fill small sampling holes from valid 8-neighborhoods.

    Point-splat rendering leaves scattered empty pixels that a real
    time-of-flight sensor would not: Kinect depth maps are dense over
    surfaces.  Each pass fills invalid pixels having at least
    ``min_neighbors`` valid neighbors with the neighbor mean (depth and
    color alike), which restores the piecewise-smooth structure 2D
    codecs rely on.

    The padded planes and accumulators are allocated once and reused
    across iterations; the borders of the padded buffers stay zero
    (equivalent to ``np.pad``'s constant fill), so the output is
    identical to re-padding every pass.
    """
    depth = depth.astype(np.float64)
    color = color.astype(np.float64)
    height, width = depth.shape

    neighbor_count = np.empty((height, width))
    depth_sum = np.empty((height, width))
    color_sum = np.empty(color.shape)
    padded_depth = np.zeros((height + 2, width + 2))
    padded_color = np.zeros((height + 2, width + 2, color.shape[2]))
    padded_valid = np.zeros((height + 2, width + 2), dtype=bool)

    for _ in range(iterations):
        valid = depth > 0
        if valid.all():
            break
        neighbor_count.fill(0.0)
        depth_sum.fill(0.0)
        color_sum.fill(0.0)
        padded_depth[1:-1, 1:-1] = depth
        padded_color[1:-1, 1:-1] = color
        padded_valid[1:-1, 1:-1] = valid
        for dy, dx in _NEIGHBOR_SHIFTS:
            window = (slice(1 + dy, 1 + dy + height), slice(1 + dx, 1 + dx + width))
            neighbor_valid = padded_valid[window]
            neighbor_count += neighbor_valid
            depth_sum += padded_depth[window] * neighbor_valid
            color_sum += padded_color[window] * neighbor_valid[..., None]
        fill = (~valid) & (neighbor_count >= min_neighbors)
        if not fill.any():
            break
        depth[fill] = depth_sum[fill] / neighbor_count[fill]
        color[fill] = color_sum[fill] / neighbor_count[fill][:, None]
    return (
        np.clip(np.rint(depth), 0, 65535).astype(np.uint16),
        np.clip(np.rint(color), 0, 255).astype(np.uint8),
    )


def fill_holes_batch(
    depths: np.ndarray, colors: np.ndarray, iterations: int = 2, min_neighbors: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`fill_holes` over a ``(N, H, W)`` stack of images at once.

    Bit-identical to filling each image separately: the neighbor shifts
    slide only along the spatial axes (each image keeps its own zero
    border in the padded stack, so images never bleed into each other),
    the eight accumulations run in the same fixed order per pixel, and
    the early-exit checks merely become batch-global -- an image that
    would have converged early sees extra no-op passes (its fill mask
    is empty, so nothing is written).  One camera rig's worth of images
    per call replaces N Python-level passes with one.
    """
    depths = depths.astype(np.float64)
    colors = colors.astype(np.float64)
    count, height, width = depths.shape

    neighbor_count = np.empty((count, height, width))
    depth_sum = np.empty((count, height, width))
    color_sum = np.empty(colors.shape)
    padded_depth = np.zeros((count, height + 2, width + 2))
    padded_color = np.zeros((count, height + 2, width + 2, colors.shape[3]))
    padded_valid = np.zeros((count, height + 2, width + 2), dtype=bool)

    for _ in range(iterations):
        valid = depths > 0
        if valid.all():
            break
        neighbor_count.fill(0.0)
        depth_sum.fill(0.0)
        color_sum.fill(0.0)
        padded_depth[:, 1:-1, 1:-1] = depths
        padded_color[:, 1:-1, 1:-1] = colors
        padded_valid[:, 1:-1, 1:-1] = valid
        for dy, dx in _NEIGHBOR_SHIFTS:
            window = (
                slice(None),
                slice(1 + dy, 1 + dy + height),
                slice(1 + dx, 1 + dx + width),
            )
            neighbor_valid = padded_valid[window]
            neighbor_count += neighbor_valid
            depth_sum += padded_depth[window] * neighbor_valid
            color_sum += padded_color[window] * neighbor_valid[..., None]
        fill = (~valid) & (neighbor_count >= min_neighbors)
        if not fill.any():
            break
        depths[fill] = depth_sum[fill] / neighbor_count[fill]
        colors[fill] = color_sum[fill] / neighbor_count[fill][:, None]
    return (
        np.clip(np.rint(depths), 0, 65535).astype(np.uint16),
        np.clip(np.rint(colors), 0, 255).astype(np.uint8),
    )


def project_splats(
    camera: RGBDCamera, points: np.ndarray, colors: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project world points into one camera's visible splat arrays.

    Returns ``(flat, z, colors)`` for the visible subset only: flattened
    pixel index, camera-local depth in meters, and the point colors.
    Points outside the camera's depth range or image bounds are dropped
    (a real time-of-flight sensor reports them as invalid / zero depth).
    """
    height = camera.intrinsics.height
    width = camera.intrinsics.width
    u, v, z = camera.project(points)

    in_range = (z >= camera.min_depth_m) & (z <= camera.max_depth_m)
    ui = np.floor(u).astype(np.int64)
    vi = np.floor(v).astype(np.int64)
    visible = in_range & (ui >= 0) & (ui < width) & (vi >= 0) & (vi < height)

    ui = ui[visible]
    vi = vi[visible]
    flat = vi * width + ui
    return flat, z[visible], np.asarray(colors)[visible]


def splat_image(
    camera: RGBDCamera,
    flat: np.ndarray,
    z: np.ndarray,
    colors: np.ndarray,
    background_color: int = 0,
    hole_fill_iterations: int = 2,
) -> tuple[np.ndarray, np.ndarray]:
    """Z-buffer splat arrays into a ``(color, depth)`` image pair.

    The splat order only matters through the stable lexsort, so any
    concatenation of :func:`project_splats` outputs that preserves the
    original point order produces identical images.
    """
    height = camera.intrinsics.height
    width = camera.intrinsics.width
    depth = np.zeros((height, width), dtype=np.uint16)
    color = np.full((height, width, 3), background_color, dtype=np.uint8)

    if len(flat):
        # Z-buffer via sort: order by pixel then descending depth, so the
        # last write per pixel is the nearest point.
        order = np.lexsort((-z, flat))
        flat = flat[order]
        zv = z[order]
        cv = colors[order]

        depth_flat = depth.reshape(-1)
        color_flat = color.reshape(-1, 3)
        depth_flat[flat] = np.clip(np.rint(zv * 1000.0), 1, 65535).astype(np.uint16)
        color_flat[flat] = cv
        if hole_fill_iterations > 0:
            depth, color = fill_holes(depth, color, iterations=hole_fill_iterations)
    return depth, color


def render_rgbd(
    camera: RGBDCamera,
    points: np.ndarray,
    colors: np.ndarray,
    sequence: int = 0,
    timestamp_s: float = 0.0,
    background_color: int = 0,
    hole_fill_iterations: int = 2,
) -> RGBDFrame:
    """Render world-space colored points into one camera's RGB-D frame.

    Points outside the camera's depth range or image bounds are dropped
    (a real time-of-flight sensor reports them as invalid / zero depth).
    Small sampling holes are filled (see :func:`fill_holes`) to match
    the dense output of a real depth sensor.
    """
    flat, z, visible_colors = project_splats(camera, points, colors)
    depth, color = splat_image(
        camera,
        flat,
        z,
        visible_colors,
        background_color=background_color,
        hole_fill_iterations=hole_fill_iterations,
    )
    return RGBDFrame(
        color, depth, camera_id=camera.camera_id, sequence=sequence, timestamp_s=timestamp_s
    )


def render_views(
    cameras: list[RGBDCamera],
    points: np.ndarray,
    colors: np.ndarray,
    sequence: int = 0,
    timestamp_s: float = 0.0,
) -> MultiViewFrame:
    """Render the same world sample set through every camera in a rig."""
    views = [
        render_rgbd(camera, points, colors, sequence=sequence, timestamp_s=timestamp_s)
        for camera in cameras
    ]
    return MultiViewFrame(views, sequence=sequence, timestamp_s=timestamp_s)


class ProjectionCache:
    """Per-camera splat cache for incremental capture.

    Static sample batches (:class:`~repro.capture.scene.SampleBatch`
    with ``static=True``) are projected through the camera once and
    their visible ``(flat, z, color)`` arrays cached, keyed by
    ``(batch key, scene epoch, batch size)``; dynamic batches are
    projected fresh every frame.

    On top of the per-batch splat cache sits a *static z-buffer image*:
    the static splats pre-resolved to their per-pixel winner, cached
    per scene epoch.  Each frame then only projects and sorts the
    dynamic splats and merges their per-pixel winners into a copy of
    the static image.

    Byte-identity argument: the full render's winner at a pixel is the
    splat with minimum ``z``, ties broken toward the *largest index* in
    the batch-order concatenation (stable lexsort + last-write-wins).
    Encoding each splat's ``(batch position, within-batch index)`` as a
    single integer rank reproduces that total order exactly -- batch
    sizes never reorder across frames, so an earlier batch always means
    a smaller concatenation index.  Restricting a max to the static
    subset first and comparing the two subset winners under the same
    ``(z, rank)`` comparator selects the same global winner, so the
    merged image equals the full lexsort z-buffer bit for bit (asserted
    against :func:`render_rgbd` in the parity suite).
    """

    # Rank stride: batch position in the high bits, within-batch index
    # in the low 32.  Sample budgets are far below 2**32 points.
    _RANK_STRIDE = np.int64(1) << 32

    def __init__(self, camera: RGBDCamera) -> None:
        self.camera = camera
        self._static: dict[tuple[str, int, int], tuple] = {}
        self._image_key: tuple | None = None
        self._image: tuple | None = None
        self.counters = CacheCounters(f"projection[cam{camera.camera_id}]")

    def batch_splats(
        self, batch: SampleBatch
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Visible splat arrays for one batch, cached when static."""
        if not batch.static:
            return project_splats(self.camera, batch.points, batch.colors)
        key = (batch.key, batch.epoch, len(batch.points))
        cached = self._static.get(key)
        if cached is not None:
            self.counters.hit()
            return cached
        self.counters.miss()
        flat, z, colors = project_splats(self.camera, batch.points, batch.colors)
        for array in (flat, z, colors):
            array.setflags(write=False)
        # A scene edit changes the epoch in the key; drop stale entries
        # for the same batch so the cache stays one-entry-per-batch.
        for stale in [k for k in self._static if k[0] == batch.key and k != key]:
            del self._static[stale]
        self._static[key] = (flat, z, colors)
        return flat, z, colors

    def _static_image(
        self, batches: list[SampleBatch], background_color: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The static splats resolved to flat per-pixel winner images.

        Returns ``(z, rank, depth, color)`` flat arrays of ``height *
        width`` entries: winner depth in meters (+inf where no static
        splat lands), its concatenation rank (-1 where empty), and the
        quantized depth/color exactly as the full scatter would write
        them.  Cached until the static batch set changes (scene epoch
        bump, scene edit, or a different background color).
        """
        static = [(pos, b) for pos, b in enumerate(batches) if b.static]
        key = (
            tuple((pos, b.key, b.epoch, len(b.points)) for pos, b in static),
            background_color,
        )
        if key == self._image_key:
            for _ in static:
                self.counters.hit()
            return self._image

        num_pixels = self.camera.intrinsics.height * self.camera.intrinsics.width
        z_image = np.full(num_pixels, np.inf)
        rank_image = np.full(num_pixels, -1, dtype=np.int64)
        depth_image = np.zeros(num_pixels, dtype=np.uint16)
        color_image = np.full((num_pixels, 3), background_color, dtype=np.uint8)
        parts = []
        for pos, batch in static:
            flat, z, colors = self.batch_splats(batch)
            rank = np.int64(pos) * self._RANK_STRIDE + np.arange(
                len(flat), dtype=np.int64
            )
            parts.append((flat, z, colors, rank))
        if parts:
            flat = np.concatenate([p[0] for p in parts])
            z = np.concatenate([p[1] for p in parts])
            colors = np.concatenate([p[2] for p in parts])
            rank = np.concatenate([p[3] for p in parts])
            # Ascending (pixel, -z, rank): the last write per pixel is
            # the nearest splat, ties to the largest rank -- identical
            # to the stable ``lexsort((-z, flat))`` winner because rank
            # increases with concatenation order.
            order = np.lexsort((rank, -z, flat))
            flat, z, colors, rank = flat[order], z[order], colors[order], rank[order]
            z_image[flat] = z
            rank_image[flat] = rank
            depth_image[flat] = np.clip(np.rint(z * 1000.0), 1, 65535).astype(np.uint16)
            color_image[flat] = colors
        for array in (z_image, rank_image, depth_image, color_image):
            array.setflags(write=False)
        self._image_key = key
        self._image = (z_image, rank_image, depth_image, color_image)
        return self._image

    def render_arrays(
        self,
        batches: list[SampleBatch],
        background_color: int = 0,
    ) -> tuple[np.ndarray, np.ndarray, bool]:
        """Z-buffered but *unfilled* ``(depth, color, needs_fill)`` arrays.

        The raw render half of :meth:`render`: callers that batch the
        hole filling across cameras (:func:`fill_holes_batch`) take the
        arrays here and fill a whole rig's stack in one pass.
        ``needs_fill`` mirrors the scalar path's skip condition (no
        splats at all means nothing to fill).
        """
        height = self.camera.intrinsics.height
        width = self.camera.intrinsics.width
        static_z, static_rank, static_depth, static_color = self._static_image(
            batches, background_color
        )
        depth = static_depth.copy()
        color = static_color.copy()

        parts = []
        for pos, batch in enumerate(batches):
            if batch.static:
                continue
            flat, z, colors = self.batch_splats(batch)
            rank = np.int64(pos) * self._RANK_STRIDE + np.arange(
                len(flat), dtype=np.int64
            )
            parts.append((flat, z, colors, rank))
        if parts:
            flat = np.concatenate([p[0] for p in parts])
            z = np.concatenate([p[1] for p in parts])
            colors = np.concatenate([p[2] for p in parts])
            rank = np.concatenate([p[3] for p in parts])
            order = np.lexsort((rank, -z, flat))
            flat, z, colors, rank = flat[order], z[order], colors[order], rank[order]
            # Reduce the dynamic splats to their per-pixel winner (the
            # last entry of each equal-pixel run), then race each winner
            # against the static winner under the same (z, rank) order.
            last = np.ones(len(flat), dtype=bool)
            last[:-1] = flat[1:] != flat[:-1]
            flat, z, colors, rank = flat[last], z[last], colors[last], rank[last]
            zs = static_z[flat]
            wins = (z < zs) | ((z == zs) & (rank > static_rank[flat]))
            flat, z, colors = flat[wins], z[wins], colors[wins]
            depth[flat] = np.clip(np.rint(z * 1000.0), 1, 65535).astype(np.uint16)
            color[flat] = colors

        depth = depth.reshape(height, width)
        color = color.reshape(height, width, 3)
        needs_fill = bool(len(parts) or self._image_key[0])
        return depth, color, needs_fill

    def render(
        self,
        batches: list[SampleBatch],
        sequence: int = 0,
        timestamp_s: float = 0.0,
        background_color: int = 0,
        hole_fill_iterations: int = 2,
    ) -> RGBDFrame:
        """Render sample batches through this camera, reusing static splats."""
        depth, color, needs_fill = self.render_arrays(batches, background_color)
        if hole_fill_iterations > 0 and needs_fill:
            depth, color = fill_holes(depth, color, iterations=hole_fill_iterations)
        return RGBDFrame(
            color,
            depth,
            camera_id=self.camera.camera_id,
            sequence=sequence,
            timestamp_s=timestamp_s,
        )
