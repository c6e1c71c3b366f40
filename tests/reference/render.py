"""Full lexsort z-buffer: every sampled point through every camera.

The oracle for ``repro.capture.renderer`` (``ProjectionCache`` and
``render_frame``), and through them for ``CaptureRig.capture`` and
``CachedFrameSource.capture``.  Each camera projects the concatenation
of a frame's sample batches, a stable ``lexsort((-z, flat))`` orders the
visible splats by pixel then by descending depth, and the last write
per pixel wins -- the nearest point, ties to the later one.  The holes
are then filled by the dense fill of ``tests/reference/fill_holes.py``.
It defines the captured images; the package's cached, sort-free
z-merge and hole-only fill must reproduce them byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.capture.rgbd import MultiViewFrame, RGBDFrame
from tests.reference.fill_holes import fill_holes_batch_dense


def render_rgbd(
    camera, points, colors, sequence=0, timestamp_s=0.0, hole_fill_iterations=2
) -> RGBDFrame:
    """One camera's RGB-D frame of world-space colored points."""
    height, width = camera.intrinsics.height, camera.intrinsics.width
    u, v, z = camera.project(points)
    in_range = (z >= camera.min_depth_m) & (z <= camera.max_depth_m)
    ui = np.floor(u).astype(np.int64)
    vi = np.floor(v).astype(np.int64)
    visible = in_range & (ui >= 0) & (ui < width) & (vi >= 0) & (vi < height)
    flat = vi[visible] * width + ui[visible]
    z = z[visible]
    colors = np.asarray(colors)[visible]

    depth = np.zeros((height, width), dtype=np.uint16)
    color = np.zeros((height, width, 3), dtype=np.uint8)
    # Order by pixel then descending depth: the last write per pixel is
    # the nearest point, and among equals the later one.
    order = np.lexsort((-z, flat))
    depth.reshape(-1)[flat[order]] = np.clip(np.rint(z[order] * 1000.0), 1, 65535).astype(
        np.uint16
    )
    color.reshape(-1, 3)[flat[order]] = colors[order]
    if hole_fill_iterations > 0:
        depths, color_stack = fill_holes_batch_dense(
            depth[None], color[None], iterations=hole_fill_iterations
        )
        depth, color = depths[0], color_stack[0]
    return RGBDFrame(
        color, depth, camera_id=camera.camera_id, sequence=sequence, timestamp_s=timestamp_s
    )


def render_views(cameras, points, colors, sequence=0, timestamp_s=0.0) -> MultiViewFrame:
    """The same world points rendered through every camera of a rig."""
    views = [
        render_rgbd(camera, points, colors, sequence=sequence, timestamp_s=timestamp_s)
        for camera in cameras
    ]
    return MultiViewFrame(views, sequence=sequence, timestamp_s=timestamp_s)


def full_render(rig, scene, sequence) -> MultiViewFrame:
    """A rig's capture of ``scene``: all of the frame's batches, concatenated."""
    timestamp = sequence * rig.frame_interval_s
    batches = scene.sample_batches(timestamp)
    return render_views(
        rig.cameras,
        np.concatenate([batch.points for batch in batches]),
        np.concatenate([batch.colors for batch in batches]),
        sequence=sequence,
        timestamp_s=timestamp,
    )
