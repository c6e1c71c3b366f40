"""Per-camera unprojection and a merge: the fusion ``unproject_views`` replaced.

The oracle for ``repro.geometry.camera.unproject_views``.  Each camera
turns its own depth image into its own world-frame cloud (valid pixels
only, colors pixel-aligned, black without a color image), and the
non-empty clouds are concatenated in camera order (paper appendix A.1).
It defines the fused cloud; the package's one-output loop must
reproduce it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.pointcloud import PointCloud
from repro.geometry.transforms import transform_points


def unproject(camera, depth_mm, color=None) -> PointCloud:
    """One camera's depth image as a world-frame point cloud."""
    depth_mm = np.asarray(depth_mm)
    valid = depth_mm > 0
    z = depth_mm[valid].astype(np.float64) / 1000.0
    x_factor, y_factor = camera.intrinsics.pixel_rays()
    local = np.stack([x_factor[valid] * z, y_factor[valid] * z, z], axis=1)
    positions = transform_points(camera.extrinsics.camera_to_world, local)
    if color is None:
        colors = np.zeros((len(positions), 3), dtype=np.uint8)
    else:
        colors = np.asarray(color)[valid]
    return PointCloud(positions, colors)


def merge(clouds: list[PointCloud]) -> PointCloud:
    """The non-empty clouds concatenated in order."""
    non_empty = [cloud for cloud in clouds if not cloud.is_empty]
    if not non_empty:
        return PointCloud()
    return PointCloud(
        np.concatenate([cloud.positions for cloud in non_empty]),
        np.concatenate([cloud.colors for cloud in non_empty]),
    )


def unproject_views(cameras, depth_images, color_images=None) -> PointCloud:
    """Every camera unprojected on its own, then merged."""
    colors = [None] * len(cameras) if color_images is None else color_images
    return merge(
        [
            unproject(camera, depth, color)
            for camera, depth, color in zip(cameras, depth_images, colors)
        ]
    )
