"""RGB-D view culling without point cloud reconstruction (section 3.4).

"For each RGB-D camera, LiVo first transforms the frustum into the
local coordinate system of the camera.  Then, for each pixel, it obtains
that pixel's local coordinates and determines if it lies within the
frustum."  Culled pixels are zeroed in both color and depth; zero
regions cost the 2D codec almost nothing, which is where the bandwidth
saving comes from.
"""

from __future__ import annotations

import numpy as np

from repro.capture.rgbd import MultiViewFrame
from repro.geometry.camera import RGBDCamera
from repro.geometry.frustum import Frustum, planes_contain, transform_planes

__all__ = ["visibility", "cull_views", "cull_to_planes", "culling_accuracy"]


def visibility(
    cameras: list[RGBDCamera], depths: list[np.ndarray], planes: np.ndarray
) -> np.ndarray:
    """``inside[r, c, y, x]``: pixel of camera ``c`` inside frustum ``r``.

    The frame's visibility table, shape ``(R, C, H, W)``.  The world-frame
    plane rows ``planes`` ``(R, 6, 4)`` are carried into every camera's
    local frame in one batched transform ``(R, C, 6, 4)`` and tested
    against the stacked per-pixel point grids ``(C, H, W, 3)`` by the one
    six-plane kernel.  Validity (nonzero depth) is *not* folded in: the
    raw capture and its culled derivatives share a table but not a mask,
    so callers and it with their own.
    """
    points = np.stack(
        [camera.local_points(depth_mm)[0] for camera, depth_mm in zip(cameras, depths)]
    )
    transforms = np.stack([camera.extrinsics.world_to_camera for camera in cameras])
    local = transform_planes(planes[:, None], transforms)
    count, height, width = points.shape[:3]
    return planes_contain(local, points.reshape(count, -1, 3)).reshape(
        len(planes), count, height, width
    )


def cull_to_planes(
    frame: MultiViewFrame, cameras: list[RGBDCamera], planes: np.ndarray
) -> tuple[MultiViewFrame, np.ndarray]:
    """Zero the pixels no frustum of ``planes`` ``(R, 6, 4)`` contains.

    The one cull: the frustums are carried into every camera's local
    frame and the per-pixel back-projections tested there
    (:func:`visibility`) -- no point cloud is materialized -- and a pixel
    survives if any frustum sees it.  Returns the culled frame and the
    visibility table it was cut from.
    """
    if len(frame.views) != len(cameras):
        raise ValueError(
            f"frame has {len(frame.views)} views but {len(cameras)} cameras given"
        )
    depths = [view.depth_mm for view in frame.views]
    inside = visibility(cameras, depths, planes)
    keep = inside.any(axis=0) & (np.stack(depths) > 0)
    culled = MultiViewFrame(
        [view.culled(mask) for view, mask in zip(frame.views, keep)],
        sequence=frame.sequence,
        timestamp_s=frame.timestamp_s,
    )
    return culled, inside


def cull_views(
    frame: MultiViewFrame, cameras: list[RGBDCamera], frustum: Frustum
) -> MultiViewFrame:
    """Zero out pixels outside the (world-frame) frustum, per camera.

    The frustum is transformed once into each camera's local frame; each
    pixel is then back-projected to its camera-local 3D point and tested
    against the six planes -- :func:`cull_to_planes` with one frustum.
    """
    return cull_to_planes(frame, cameras, frustum.array[None])[0]


def culling_accuracy(
    frame: MultiViewFrame,
    cameras: list[RGBDCamera],
    predicted_frustum: Frustum,
    actual_frustum: Frustum,
) -> tuple[float, float]:
    """Score a predicted cull against the receiver's actual frustum.

    Returns ``(accuracy, kept_fraction)``, the two numbers Fig. 15
    reports per (guard band, window) cell:

    - ``accuracy``: of the pixels actually visible (inside the actual
      frustum), the fraction the predicted cull kept -- prediction
      recall; 100 percent means culling never removed visible content;
    - ``kept_fraction``: fraction of all valid pixels the predicted
      cull kept (the bracketed "fraction of points within frustum").
    """
    if len(frame.views) != len(cameras):
        raise ValueError("views/cameras mismatch")
    depths = [view.depth_mm for view in frame.views]
    valid = np.stack(depths) > 0
    kept, visible = visibility(
        cameras, depths, np.stack([predicted_frustum.array, actual_frustum.array])
    ) & valid
    visible_and_kept = int(np.count_nonzero(kept & visible))
    visible_total = int(np.count_nonzero(visible))
    kept_total = int(np.count_nonzero(kept))
    valid_total = int(np.count_nonzero(valid))
    accuracy = 1.0 if visible_total == 0 else visible_and_kept / visible_total
    kept_fraction = 0.0 if valid_total == 0 else kept_total / valid_total
    return accuracy, kept_fraction
