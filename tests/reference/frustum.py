"""Six ``Plane`` objects per frustum: the scalar chain the culling replaced.

The oracle for ``repro.geometry.frustum`` (one ``(6, 4)`` array per
frustum) and for the per-frame visibility table
``repro.prediction.culling.visibility`` builds.  Every plane is a :class:`Plane` that
renormalises itself on each ``translated`` / ``transformed``; a grid is
tested one (frustum, camera) pair at a time, one ``points @ normal +
offset`` gemv per plane, the masks and-ed together.  It defines which
pixels a receiver sees; the package's batched arithmetic may differ from
it in the last ulp of a plane coefficient and nowhere in a mask (away
from a plane's surface).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Plane:
    """Oriented plane ``normal . x + offset = 0`` with unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self) -> None:
        normal = np.asarray(self.normal, dtype=np.float64)
        norm = np.linalg.norm(normal)
        if norm < 1e-12:
            raise ValueError("plane normal must be nonzero")
        object.__setattr__(self, "normal", normal / norm)
        object.__setattr__(self, "offset", float(self.offset) / norm)

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        """Signed distance of ``(N, 3)`` points; positive on the normal side."""
        return np.asarray(points, dtype=np.float64) @ self.normal + self.offset

    def translated(self, delta: float) -> "Plane":
        """Plane moved ``delta`` meters along its (inward) normal.

        Negative ``delta`` moves the plane outward, enlarging the frustum:
        LiVo's guard band (section 3.4).
        """
        return Plane(self.normal.copy(), self.offset - delta)

    def transformed(self, transform: np.ndarray) -> "Plane":
        """Plane mapped through a rigid 4x4 transform.

        For a rigid transform T, the plane (n, d) maps to (R n, d - (R n).t).
        """
        rotation = transform[:3, :3]
        translation = transform[:3, 3]
        new_normal = rotation @ self.normal
        new_offset = self.offset - float(new_normal @ translation)
        return Plane(new_normal, new_offset)


def _normalize(vector: np.ndarray) -> np.ndarray:
    return vector / np.linalg.norm(vector)


class PlaneFrustum:
    """Six-plane truncated viewing pyramid with inward normals."""

    def __init__(self, planes: list[Plane]) -> None:
        if len(planes) != 6:
            raise ValueError(f"a frustum has exactly 6 planes, got {len(planes)}")
        self.planes = list(planes)

    @staticmethod
    def from_camera(
        position: np.ndarray,
        rotation: np.ndarray,
        vertical_fov_deg: float = 60.0,
        aspect: float = 16.0 / 9.0,
        near_m: float = 0.1,
        far_m: float = 10.0,
    ) -> "PlaneFrustum":
        position = np.asarray(position, dtype=np.float64)
        rotation = np.asarray(rotation, dtype=np.float64)
        right = rotation[:, 0]
        down = rotation[:, 1]
        forward = rotation[:, 2]
        tan_v = np.tan(np.deg2rad(vertical_fov_deg) / 2.0)
        tan_h = tan_v * aspect

        def plane_through_eye(normal: np.ndarray) -> Plane:
            return Plane(normal, -float(normal @ position))

        near = Plane(forward, -float(forward @ (position + forward * near_m)))
        far = Plane(-forward, float(forward @ (position + forward * far_m)))
        left = plane_through_eye(_normalize(forward * tan_h + right))
        right_pl = plane_through_eye(_normalize(forward * tan_h - right))
        top = plane_through_eye(_normalize(forward * tan_v + down))
        bottom = plane_through_eye(_normalize(forward * tan_v - down))
        return PlaneFrustum([near, far, left, right_pl, top, bottom])

    def rows(self) -> np.ndarray:
        """The planes as ``(6, 4)`` ``[normal | offset]`` rows."""
        return np.array([[*plane.normal, plane.offset] for plane in self.planes])

    def signed_distances(self, points: np.ndarray) -> np.ndarray:
        """``(6, N)`` signed distances of ``(N, 3)`` points, no early exit."""
        return np.stack([plane.signed_distance(points) for plane in self.planes])

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        inside = np.ones(len(points), dtype=bool)
        for plane in self.planes:
            inside &= plane.signed_distance(points) >= 0.0
            if not inside.any():
                break
        return inside

    def contains_grid(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return self.contains(points.reshape(-1, 3)).reshape(points.shape[:2])

    def expanded(self, guard_band_m: float) -> "PlaneFrustum":
        return PlaneFrustum([plane.translated(-guard_band_m) for plane in self.planes])

    def transformed(self, transform: np.ndarray) -> "PlaneFrustum":
        return PlaneFrustum([plane.transformed(transform) for plane in self.planes])


def inside_masks(frustums, cameras, depths) -> np.ndarray:
    """``inside[r, c]``: the (frustum, camera) grid tests, one pair at a time."""
    masks = []
    for frustum in frustums:
        row = []
        for camera, depth_mm in zip(cameras, depths):
            points, _ = camera.local_points(depth_mm)
            local = frustum.transformed(camera.extrinsics.world_to_camera)
            row.append(local.contains_grid(points))
        masks.append(row)
    return np.array(masks)


def kept_points(frustum, cameras, union_depths) -> int:
    """What ``SFUNode._kept_points`` counted: union pixels inside one frustum."""
    kept = 0
    for camera, depth_mm in zip(cameras, union_depths):
        points, valid = camera.local_points(depth_mm)
        local = frustum.transformed(camera.extrinsics.world_to_camera)
        kept += int((local.contains_grid(points) & valid).sum())
    return kept
