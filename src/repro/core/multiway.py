"""Union culling: the cross-receiver optimization of multi-way LiVo.

The paper builds two-way conferencing and notes that "multi-way
conferencing can be built using LiVo, but presents opportunities for
optimizations (e.g., across receivers from a single sender) that we
leave to future work" (section 3.1).  The optimization is to cull once
to the *union* of all receivers' guard-banded frustums and encode a
single pair of streams every receiver consumes -- one encode, one
uplink stream, whatever the roster.  :func:`cull_views_union` is that
cull; :class:`repro.sfu.conference.ConferenceDriver` is the frame loop
around it (and :class:`~repro.sfu.conference.UnicastBaseline` the
per-receiver control it is measured against).
"""

from __future__ import annotations

import numpy as np

from repro.capture.rgbd import MultiViewFrame
from repro.geometry.camera import RGBDCamera
from repro.geometry.frustum import Frustum

__all__ = ["cull_views_union"]


def cull_views_union(
    frame: MultiViewFrame,
    cameras: list[RGBDCamera],
    frustums: list[Frustum],
    cache=None,
) -> MultiViewFrame:
    """Zero pixels outside *every* given frustum (keep the union).

    ``cache`` is an optional :class:`repro.perf.culling.CullCache`:
    with it, per-camera world-to-camera transforms, per-pixel point
    grids, and per-(frustum, camera) plane transforms are memoized and
    shared with any same-frame re-cull (the SFU's per-receiver pass).
    Outputs are byte-identical with or without the cache.
    """
    if not frustums:
        raise ValueError("need at least one frustum")
    if len(frame.views) != len(cameras):
        raise ValueError("views/cameras mismatch")
    if cache is not None:
        cache.begin_frame(frame.sequence)
    culled_views = []
    for view, camera in zip(frame.views, cameras):
        if cache is not None:
            points, valid = cache.local_points(camera, view.depth_mm)
        else:
            points, valid = camera.local_points(view.depth_mm)
            # Hoisted per camera: the extrinsics property recomputes the
            # 4x4 inversion on every access, so one lookup serves every
            # frustum below instead of one inversion per (view, frustum).
            world_to_camera = camera.extrinsics.world_to_camera
        keep = np.zeros(valid.shape, dtype=bool)
        for frustum in frustums:
            if cache is not None:
                local = cache.transformed_frustum(frustum, camera)
            else:
                local = frustum.transformed(world_to_camera)
            keep |= local.contains_grid(points)
            if keep.all():
                break
        culled_views.append(view.culled(keep & valid))
    return MultiViewFrame(
        culled_views, sequence=frame.sequence, timestamp_s=frame.timestamp_s
    )
