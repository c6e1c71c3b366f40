"""Point cloud container.

A point cloud is the canonical per-frame 3D representation in the paper:
each point has a position (geometry, meters) and an RGB color (uint8).
The class is a thin, validated wrapper over two NumPy arrays so that all
hot paths stay vectorized.  A rig's views fuse into one cloud through
:func:`repro.geometry.camera.unproject_views` (paper appendix A.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.transforms import transform_points

__all__ = ["PointCloud"]


@dataclass
class PointCloud:
    """A colored point cloud.

    Attributes:
        positions: ``(N, 3)`` float64 array of XYZ coordinates in meters.
        colors: ``(N, 3)`` uint8 array of RGB colors.
    """

    positions: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    colors: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), dtype=np.uint8))

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.colors = np.asarray(self.colors, dtype=np.uint8)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {self.positions.shape}")
        if self.colors.ndim != 2 or self.colors.shape[1] != 3:
            raise ValueError(f"colors must be (N, 3), got {self.colors.shape}")
        if len(self.positions) != len(self.colors):
            raise ValueError(
                f"positions ({len(self.positions)}) and colors ({len(self.colors)}) "
                "must have the same length"
            )

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def num_points(self) -> int:
        """Number of points."""
        return len(self.positions)

    @property
    def is_empty(self) -> bool:
        """True when the cloud has no points."""
        return len(self.positions) == 0

    def raw_size_bytes(self) -> int:
        """Uncompressed wire size: 3 float32 positions + 3 uint8 colors.

        This matches how the paper sizes raw frames (about 10 MB for a
        full-scene frame, Table 3): 15 bytes per point.
        """
        return self.num_points * (3 * 4 + 3)

    def select(self, mask: np.ndarray) -> "PointCloud":
        """Return a new cloud containing only points where ``mask`` is True."""
        mask = np.asarray(mask)
        return PointCloud(self.positions[mask], self.colors[mask])

    def transformed(self, transform: np.ndarray) -> "PointCloud":
        """Return a copy with positions mapped through a 4x4 transform."""
        if self.is_empty:
            return PointCloud(self.positions.copy(), self.colors.copy())
        return PointCloud(transform_points(transform, self.positions), self.colors.copy())

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box as ``(min_xyz, max_xyz)``."""
        if self.is_empty:
            zero = np.zeros(3)
            return zero, zero
        return self.positions.min(axis=0), self.positions.max(axis=0)

    def copy(self) -> "PointCloud":
        """Deep copy."""
        return PointCloud(self.positions.copy(), self.colors.copy())
