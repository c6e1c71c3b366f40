"""Union culling: the cross-receiver optimization of multi-way LiVo.

The paper builds two-way conferencing and notes that "multi-way
conferencing can be built using LiVo, but presents opportunities for
optimizations (e.g., across receivers from a single sender) that we
leave to future work" (section 3.1).  The optimization is to cull once
to the *union* of all receivers' guard-banded frustums and encode a
single pair of streams every receiver consumes -- one encode, one
uplink stream, whatever the roster.  :func:`cull_views_union` is that
cull: it builds the frame's receivers x cameras visibility table
(:func:`repro.prediction.culling.visibility`), keeps what any receiver
sees and returns the table with the culled frame, and the SFU node's
forward reads each receiver's share out of that same table.
:class:`repro.sfu.conference.ConferenceDriver` is the frame loop that
hands it on (and :class:`~repro.sfu.conference.UnicastBaseline` the
per-receiver control it is measured against).
"""

from __future__ import annotations

import numpy as np

from repro.capture.rgbd import MultiViewFrame
from repro.geometry.camera import RGBDCamera
from repro.geometry.frustum import Frustum
from repro.prediction.culling import cull_to_planes

__all__ = ["cull_views_union"]


def cull_views_union(
    frame: MultiViewFrame,
    cameras: list[RGBDCamera],
    frustums: list[Frustum],
) -> tuple[MultiViewFrame, np.ndarray]:
    """Zero pixels outside *every* given frustum (keep the union).

    Builds the frame's receivers x cameras visibility table, keeps a
    pixel any receiver sees, and returns ``(culled, inside)``: the
    culled frame and the table, row ``r`` belonging to ``frustums[r]``.
    """
    if not frustums:
        raise ValueError("need at least one frustum")
    planes = np.stack([frustum.array for frustum in frustums])
    return cull_to_planes(frame, cameras, planes)
