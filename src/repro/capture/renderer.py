"""Z-buffer point-splat renderer: scene sample batches -> per-camera RGB-D images.

This stands in for the physical Kinect sensor: the scene's sampled
surface points are projected through each camera's pinhole model and
splatted into a depth buffer; the nearest point per pixel wins.  Output
is a pixel-aligned color + uint16 millimeter depth pair -- the same
format the Azure Kinect SDK yields after alignment.

There is one renderer, :func:`render_frame`.  Per camera, a
:class:`ProjectionCache` projects the *static* sample batches once
(:func:`project_splats`) and keeps only the static z-buffer image they
resolve to; each frame it projects the dynamic points in one
call, reduces them to their per-pixel winners and merges those into the
static image -- nearest ``z``, ties to the later point in batch order.
Small sampling holes are then filled in one pass over the stacked
views (:func:`fill_holes_batch`).  The images are defined by a
z-buffer over the concatenated batches that sorts every splat by pixel
and then by descending depth and lets the last write win; it lives in
``tests/reference/render.py`` as the oracle the renderer must match
byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.capture.rgbd import MultiViewFrame, RGBDFrame
from repro.capture.scene import SampleBatch
from repro.geometry.camera import RGBDCamera
from repro.perf.counters import CacheCounters

__all__ = [
    "fill_holes_batch",
    "project_splats",
    "render_frame",
    "ProjectionCache",
]

# 8-neighborhood offsets for hole filling, hoisted out of the loop: the
# accumulation order below must stay fixed -- float sums are applied in
# this order, and reordering would change low bits of the fill values.
_NEIGHBOR_SHIFTS = tuple(
    (dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0)
)

# Hole filling runs this many passes, each filling the holes that have at
# least FILL_MIN_NEIGHBORS valid 8-neighbors.
FILL_PASSES = 2
FILL_MIN_NEIGHBORS = 3


def _quantized(values: np.ndarray, dtype: type) -> np.ndarray:
    """``values`` rounded and clipped into ``dtype``, always a new array."""
    if values.dtype == dtype:
        return values.copy()
    rounded = np.rint(values.astype(np.float64, copy=False))
    return np.clip(rounded, 0, np.iinfo(dtype).max).astype(dtype)


def fill_holes_batch(depths: np.ndarray, colors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fill small sampling holes of a ``(N, H, W)`` stack of images.

    Point-splat rendering leaves scattered empty pixels that a real
    time-of-flight sensor would not: Kinect depth maps are dense over
    surfaces.  Each of ``FILL_PASSES`` passes fills invalid pixels
    having at least ``FILL_MIN_NEIGHBORS`` valid 8-neighbors with the
    neighbor mean (depth and color alike), which restores the
    piecewise-smooth structure 2D codecs rely on.

    Only the holes are visited.  Each pass gathers the eight neighbors
    of every still-invalid pixel out of a zero-bordered float64 copy of
    the stack (each image keeps its own border, so images never bleed
    into each other), sums the fillable ones in ``_NEIGHBOR_SHIFTS``
    order and writes the mean back unrounded -- the next pass reads the
    float64 values a dense pass over the whole stack would, so every
    sum is the same sum.  The outputs are the inputs as ``uint16`` /
    ``uint8`` with only the filled pixels rewritten.
    """
    count, height, width = depths.shape
    channels = colors.shape[3]
    padded_depth = np.zeros((count, height + 2, width + 2))
    padded_color = np.zeros((count, height + 2, width + 2, channels))
    padded_depth[:, 1:-1, 1:-1] = depths
    padded_color[:, 1:-1, 1:-1] = colors
    flat_depth = padded_depth.reshape(-1)
    flat_color = padded_color.reshape(-1, channels)
    out_depth = _quantized(depths, np.uint16)
    out_color = _quantized(colors, np.uint8)

    # Every hole twice: its flat index in the outputs and in the padded stack.
    pixels = np.flatnonzero(~(depths > 0))
    image, within = np.divmod(pixels, height * width)
    row, col = np.divmod(within, width)
    holes = (image * (height + 2) + row + 1) * (width + 2) + col + 1
    shifts = np.array([dy * (width + 2) + dx for dy, dx in _NEIGHBOR_SHIFTS])[:, None]
    for _ in range(FILL_PASSES):
        neighbor_depth = flat_depth[holes + shifts]                # (8, holes)
        neighbor_valid = neighbor_depth > 0
        neighbor_count = neighbor_valid.sum(axis=0)
        fill = neighbor_count >= FILL_MIN_NEIGHBORS
        if not fill.any():
            break
        filled, neighbor_count = holes[fill], neighbor_count[fill]
        neighbor_color = flat_color[filled + shifts]               # (8, filled, C)
        depth_sum = np.zeros(len(filled))
        color_sum = np.zeros((len(filled), channels))
        neighbor_depth, neighbor_valid = neighbor_depth[:, fill], neighbor_valid[:, fill]
        for depth, color, valid in zip(neighbor_depth, neighbor_color, neighbor_valid):
            depth_sum += depth * valid
            color_sum += color * valid[:, None]
        depth_mean = depth_sum / neighbor_count
        color_mean = color_sum / neighbor_count[:, None]
        flat_depth[filled] = depth_mean
        flat_color[filled] = color_mean
        out_depth.reshape(-1)[pixels[fill]] = _quantized(depth_mean, np.uint16)
        out_color.reshape(-1, channels)[pixels[fill]] = _quantized(color_mean, np.uint8)
        remaining = ~(flat_depth[holes] > 0)
        holes, pixels = holes[remaining], pixels[remaining]
    return out_depth, out_color


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


def _depth_mm(z: np.ndarray) -> np.ndarray:
    """Camera-local depth in meters as the sensor's uint16 millimeters (0 = invalid)."""
    return np.clip(np.rint(z * 1000.0), 1, 65535).astype(np.uint16)


def _nearest_per_pixel(
    flat: np.ndarray, z: np.ndarray, num_pixels: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per occupied pixel, the index of its nearest splat; ties go to the last.

    Returns ``(pixels, winner)``: the distinct values of ``flat`` and,
    for each, an index into the inputs.  A stable sort on the pixel
    alone keeps input order inside every equal-pixel run, so the last
    position that attains the run's minimum ``z`` is the splat a stable
    sort by pixel, then by descending ``z``, would write last.  The pixel index is sorted
    in the narrowest type that holds ``num_pixels``: numpy's stable sort
    of 16-bit keys, which covers sensor-sized images, is a radix sort.
    """
    order = np.argsort(flat.astype(np.min_scalar_type(num_pixels - 1)), kind="stable")
    flat, z = flat[order], z[order]
    first = np.ones(len(flat), dtype=bool)
    first[1:] = flat[1:] != flat[:-1]
    starts = np.flatnonzero(first)
    nearest = np.minimum.reduceat(z, starts)
    at_nearest = np.where(z == nearest[np.cumsum(first) - 1], np.arange(len(z)), -1)
    return flat[starts], order[np.maximum.reduceat(at_nearest, starts)]


class ProjectionCache:
    """Per-camera static z-buffer image for incremental capture.

    A cache renders one scene, whose static sample batches
    (:class:`~repro.capture.scene.SampleBatch` with ``static=True``)
    are the same arrays every frame.  On its first call the cache
    projects them through the camera and resolves the splats to a
    *static z-buffer image*, keeping only the image; each frame then
    only projects the dynamic points, in one call, reduces them to
    their per-pixel winners and merges those into a copy of the image.

    Byte-identity argument: the full render's winner at a pixel is the
    splat with minimum ``z``, ties broken toward the *largest index* in
    the batch-order concatenation (stable two-key sort + last-write-wins).
    Within the static and within the dynamic subset, concatenation
    order is input order, which :func:`_nearest_per_pixel` honors;
    between a static and a dynamic winner with equal ``z``, the later
    batch position wins -- an earlier batch always means a smaller
    concatenation index.  Restricting the choice to each subset first
    and comparing the two subset winners under the same ``(z, order)``
    comparator selects the same global winner, so the merged image
    equals the full z-buffer bit for bit (asserted against the oracle
    in ``tests/reference/render.py``).
    """

    def __init__(self, camera: RGBDCamera) -> None:
        self.camera = camera
        self._image: tuple | None = None
        self.counters = CacheCounters(f"projection[cam{camera.camera_id}]")

    def _static_image(
        self, batches: list[SampleBatch]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The static splats resolved to flat per-pixel winner images.

        Returns ``(z, position, depth, color)`` flat arrays of ``height
        * width`` entries: winner depth in meters (+inf where no static
        splat lands), the batch position it came from (-1 where empty),
        and the quantized depth/color exactly as the full scatter would
        write them.  Built on the first call, which counts a miss per
        static batch; every later call counts a hit per static batch.
        """
        static = [(pos, b) for pos, b in enumerate(batches) if b.static]
        if self._image is not None:
            self.counters.hit(len(static))
            return self._image
        self.counters.miss(len(static))

        num_pixels = self.camera.intrinsics.height * self.camera.intrinsics.width
        z_image = np.full(num_pixels, np.inf)
        position_image = np.full(num_pixels, -1, dtype=np.int64)
        depth_image = np.zeros(num_pixels, dtype=np.uint16)
        color_image = np.zeros((num_pixels, 3), dtype=np.uint8)
        if static:
            parts = [project_splats(self.camera, b.points, b.colors) for _, b in static]
            flat, z, colors = (np.concatenate(arrays) for arrays in zip(*parts))
            position = np.repeat([pos for pos, _ in static], [len(p[0]) for p in parts])
            pixels, winner = _nearest_per_pixel(flat, z, num_pixels)
            z_image[pixels] = z[winner]
            position_image[pixels] = position[winner]
            depth_image[pixels] = _depth_mm(z[winner])
            color_image[pixels] = colors[winner]
        for array in (z_image, position_image, depth_image, color_image):
            array.setflags(write=False)
        self._image = (z_image, position_image, depth_image, color_image)
        return self._image

    def render_arrays(self, batches: list[SampleBatch]) -> tuple[np.ndarray, np.ndarray]:
        """Z-buffered but *unfilled* ``(depth, color)`` arrays.

        :func:`render_frame` fills the holes of a whole rig's stack in
        one pass (:func:`fill_holes_batch`).
        """
        height = self.camera.intrinsics.height
        width = self.camera.intrinsics.width
        static_z, static_position, static_depth, static_color = self._static_image(batches)
        depth = static_depth.copy()
        color = static_color.copy()

        dynamic = [(pos, b) for pos, b in enumerate(batches) if not b.static]
        if dynamic:
            points = np.concatenate([b.points for _, b in dynamic])
            # Each point's concatenation index rides through the
            # visibility filter in place of its color: only the winners
            # need their color and batch position looked up.
            flat, z, index = project_splats(self.camera, points, np.arange(len(points)))
            pixels, winner = _nearest_per_pixel(flat, z, len(depth))
            z, index = z[winner], index[winner]
            ends = np.cumsum([len(b.points) for _, b in dynamic])
            position = np.array([pos for pos, _ in dynamic])[
                np.searchsorted(ends, index, side="right")
            ]
            # Race each dynamic winner against the static winner under
            # the same (z, concatenation order) comparator.
            rival_z = static_z[pixels]
            wins = (z < rival_z) | ((z == rival_z) & (position > static_position[pixels]))
            pixels, index = pixels[wins], index[wins]
            depth[pixels] = _depth_mm(z[wins])
            color[pixels] = np.concatenate([b.colors for _, b in dynamic])[index]

        return depth.reshape(height, width), color.reshape(height, width, 3)


def render_frame(
    caches: list[ProjectionCache],
    batches: list[SampleBatch],
    sequence: int,
    timestamp_s: float,
) -> MultiViewFrame:
    """One synchronized multi-view capture of a scene's sample batches.

    Each camera's z-buffer comes unfilled out of its cache
    (:meth:`ProjectionCache.render_arrays`) and the hole filling runs
    once over the stacked ``(N, H, W)`` images (:func:`fill_holes_batch`),
    bit-identical to filling each camera separately.  A
    :class:`~repro.capture.rgbd.MultiViewFrame` holds views of one
    resolution, so one stack covers the rig.
    """
    unfilled = [cache.render_arrays(batches) for cache in caches]
    depths, colors = fill_holes_batch(
        np.stack([depth for depth, _ in unfilled]),
        np.stack([color for _, color in unfilled]),
    )
    views = [
        RGBDFrame(
            color,
            depth,
            camera_id=cache.camera.camera_id,
            sequence=sequence,
            timestamp_s=timestamp_s,
        )
        for cache, depth, color in zip(caches, depths, colors)
    ]
    return MultiViewFrame(views, sequence=sequence, timestamp_s=timestamp_s)
