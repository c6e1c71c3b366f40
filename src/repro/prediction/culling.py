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
from repro.geometry.frustum import Frustum
from repro.perf.culling import CullCache

__all__ = ["cull_views", "cull_to_planes", "culling_accuracy"]


def cull_to_planes(
    frame: MultiViewFrame,
    cameras: list[RGBDCamera],
    planes: np.ndarray,
    cache: CullCache | None = None,
) -> MultiViewFrame:
    """Zero the pixels no frustum of ``planes`` ``(R, 6, 4)`` contains.

    The one cull: the frustums are carried into every camera's local
    frame and the per-pixel back-projections tested there
    (:meth:`CullCache.visibility`) -- no point cloud is materialized --
    and a pixel survives if any frustum sees it.  With a ``cache`` the
    visibility table stays readable until the cache is handed another
    capture; without one it is dropped on return.
    """
    if len(frame.views) != len(cameras):
        raise ValueError(
            f"frame has {len(frame.views)} views but {len(cameras)} cameras given"
        )
    if cache is None:
        cache = CullCache()
    cache.begin_frame(frame)
    depths = [view.depth_mm for view in frame.views]
    inside = cache.visibility(cameras, depths, planes)
    keep = inside.any(axis=0) & (np.stack(depths) > 0)
    return MultiViewFrame(
        [view.culled(mask) for view, mask in zip(frame.views, keep)],
        sequence=frame.sequence,
        timestamp_s=frame.timestamp_s,
    )


def cull_views(
    frame: MultiViewFrame,
    cameras: list[RGBDCamera],
    frustum: Frustum,
    cache: CullCache | None = None,
) -> MultiViewFrame:
    """Zero out pixels outside the (world-frame) frustum, per camera.

    The frustum is transformed once into each camera's local frame; each
    pixel is then back-projected to its camera-local 3D point and tested
    against the six planes -- :func:`cull_to_planes` with one frustum.
    A ``cache`` carries the rig's inverted extrinsics from frame to
    frame; this cull is the frame's only read of its table and grids,
    so neither outlives the call.
    """
    try:
        return cull_to_planes(frame, cameras, frustum.array[None], cache)
    finally:
        if cache is not None:
            cache.end_frame()


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
    kept, visible = CullCache().visibility(
        cameras, depths, np.stack([predicted_frustum.array, actual_frustum.array])
    ) & valid
    visible_and_kept = int(np.count_nonzero(kept & visible))
    visible_total = int(np.count_nonzero(visible))
    kept_total = int(np.count_nonzero(kept))
    valid_total = int(np.count_nonzero(valid))
    accuracy = 1.0 if visible_total == 0 else visible_and_kept / visible_total
    kept_fraction = 0.0 if valid_total == 0 else kept_total / valid_total
    return accuracy, kept_fraction
