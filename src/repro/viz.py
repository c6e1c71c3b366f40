"""Artifact export: images and point clouds, dependency-free.

The paper's receiver renders with Open3D/Unity; this module provides
the inspection equivalents that work anywhere: a NetPBM image writer
(PPM, for color and for depth through a turbo-like colormap) and an ASCII
PLY writer for point clouds, so every stage of the pipeline can be
dumped to files and eyeballed in any viewer.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.geometry.camera import MAX_DEPTH_MM
from repro.geometry.pointcloud import PointCloud

__all__ = ["write_ppm", "depth_to_color", "write_ply"]


def write_ppm(path: str | Path, image: np.ndarray) -> Path:
    """Write an ``(H, W, 3)`` uint8 image as binary PPM (P6)."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError("write_ppm expects an (H, W, 3) uint8 image")
    path = Path(path)
    height, width = image.shape[:2]
    with path.open("wb") as handle:
        handle.write(f"P6\n{width} {height}\n255\n".encode())
        handle.write(image.tobytes())
    return path


def depth_to_color(depth_mm: np.ndarray) -> np.ndarray:
    """Map a depth image to an RGB visualization over the sensing range.

    Near is warm, far is cool, invalid (zero) is black -- the standard
    presentation of Kinect depth maps.
    """
    depth_mm = np.asarray(depth_mm, dtype=np.float64)
    normalized = np.clip(depth_mm / MAX_DEPTH_MM, 0.0, 1.0)
    # Simple three-anchor gradient: red -> green -> blue.
    r = np.clip(1.5 - 3.0 * normalized, 0.0, 1.0)
    g = np.clip(1.5 - 3.0 * np.abs(normalized - 0.5), 0.0, 1.0)
    b = np.clip(3.0 * normalized - 1.5, 0.0, 1.0)
    image = np.stack([r, g, b], axis=-1)
    image[depth_mm <= 0] = 0.0
    return np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)


def write_ply(path: str | Path, cloud: PointCloud) -> Path:
    """Write a point cloud as ASCII PLY (positions + RGB)."""
    path = Path(path)
    header = (
        "ply\n"
        "format ascii 1.0\n"
        f"element vertex {cloud.num_points}\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        "property uchar red\n"
        "property uchar green\n"
        "property uchar blue\n"
        "end_header\n"
    )
    rows = np.concatenate(
        [cloud.positions.astype(np.float32), cloud.colors.astype(np.float32)], axis=1
    )
    with path.open("w") as handle:
        handle.write(header)
        for x, y, z, r, g, b in rows:
            handle.write(f"{x:.5f} {y:.5f} {z:.5f} {int(r)} {int(g)} {int(b)}\n")
    return path
