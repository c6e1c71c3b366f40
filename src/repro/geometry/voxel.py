"""Voxel-grid downsampling.

The LiVo receiver voxelizes the reconstructed point cloud before
rendering to bound rendering cost (paper appendix A.1, following ViVo
and GROOT).  One representative point survives per occupied voxel, with
the voxel's mean color.

Fast path: grouping key triplets with ``np.unique(keys, axis=0)`` views
the rows as a structured dtype and sorts them row-wise, which is the
single most expensive kernel on the receive side (it runs two or three
times per quality sample).  When every key component fits a 21-bit
budget -- always true for room-scale scenes at centimeter voxels -- the
three components are packed into one ``int64`` whose integer order
equals the lexicographic order of the triplets, so a plain 1-D
``np.unique`` yields the *identical* ``inverse``/``counts`` arrays an
order of magnitude faster.  Per-voxel sums then use ``np.bincount``,
which accumulates in the same input order as ``np.add.at`` and is
therefore bit-identical (both are sequential C loops over the input).
Clouds that overflow the bit budget fall back to the row-wise path.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.pointcloud import PointCloud

__all__ = ["voxel_downsample", "voxel_occupancy"]

# Per-component bit budget for the packed-key fast path: signed 21-bit
# voxel indices cover +-2^20 voxels per axis (a ~31 km span at 3 cm
# voxels) and three of them fill an int64 with a sign bit to spare.
_KEY_BITS = 21
_KEY_LIMIT = np.int64(1) << (_KEY_BITS - 1)


def voxel_keys(positions: np.ndarray, voxel_size_m: float) -> np.ndarray:
    """Integer voxel index triplets for each point."""
    if voxel_size_m <= 0:
        raise ValueError("voxel_size_m must be positive")
    return np.floor(np.asarray(positions, dtype=np.float64) / voxel_size_m).astype(np.int64)


def _packed_keys(keys: np.ndarray) -> np.ndarray | None:
    """Pack key triplets into order-preserving int64 scalars.

    Returns None when any component overflows the per-axis budget (the
    caller falls back to the row-wise grouping).  Offsetting by the
    limit makes each component non-negative, so the packed integers
    sort exactly like the original triplets sort lexicographically.
    """
    if len(keys) and np.abs(keys).max() >= _KEY_LIMIT:
        return None
    shifted = keys + _KEY_LIMIT
    return (
        (shifted[:, 0] << (2 * _KEY_BITS))
        | (shifted[:, 1] << _KEY_BITS)
        | shifted[:, 2]
    )


def _group_voxels(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group key triplets: ``(inverse, counts)`` of the sorted-unique keys.

    The packed fast path and the ``axis=0`` reference produce identical
    arrays (asserted in tests/test_pointcloud.py, ``TestVoxelGrouping``,
    up to the budget's edge and past it); only the grouping kernel
    differs.
    """
    packed = _packed_keys(keys)
    if packed is None:
        _, inverse, counts = np.unique(
            keys, axis=0, return_inverse=True, return_counts=True
        )
        return inverse, counts
    _, inverse, counts = np.unique(packed, return_inverse=True, return_counts=True)
    return inverse, counts


def _segment_sums(
    inverse: np.ndarray, values: np.ndarray, num_voxels: int
) -> np.ndarray:
    """Per-voxel column sums, accumulated in input order.

    ``np.bincount`` adds weights sequentially over the input exactly as
    ``np.add.at`` does, so per-bucket float accumulation order -- and
    with it every low bit of the sums -- is preserved.
    """
    sums = np.empty((num_voxels, values.shape[1]))
    for column in range(values.shape[1]):
        sums[:, column] = np.bincount(
            inverse, weights=values[:, column], minlength=num_voxels
        )
    return sums


def voxel_downsample(cloud: PointCloud, voxel_size_m: float) -> PointCloud:
    """Downsample a cloud to one point per occupied voxel.

    The surviving point is the centroid of the voxel's points and its
    color the (rounded) mean color, matching Open3D's
    ``voxel_down_sample`` semantics that the paper's receiver uses.
    """
    if cloud.is_empty:
        return cloud.copy()
    keys = voxel_keys(cloud.positions, voxel_size_m)
    inverse, counts = _group_voxels(keys)
    num_voxels = len(counts)

    centroids = _segment_sums(inverse, cloud.positions, num_voxels) / counts[:, None]
    color_sums = _segment_sums(inverse, cloud.colors.astype(np.float64), num_voxels)
    mean_colors = np.clip(np.rint(color_sums / counts[:, None]), 0, 255).astype(np.uint8)

    return PointCloud(centroids, mean_colors)


def voxel_occupancy(cloud: PointCloud, voxel_size_m: float) -> set[tuple[int, int, int]]:
    """Set of occupied voxel indices; used by quality metrics and tests."""
    if cloud.is_empty:
        return set()
    keys = voxel_keys(cloud.positions, voxel_size_m)
    return {tuple(row) for row in np.unique(keys, axis=0)}
