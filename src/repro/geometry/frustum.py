"""Viewing frustum: the receiver's 3D field of view.

Paper section 3.4: "A frustum is a 3D truncated pyramid defined by six
planes -- near, far, top, bottom, left, and right -- whose plane normals
point inwards.  P is outside the frustum if distance of the point from
either of the six planes is positive [with outward normals]."

We store inward-pointing normals, so a point is inside when its signed
distance to every plane is >= 0.  The frustum is built from a viewer pose
(position + orientation) and the viewing-device parameters (vertical FoV,
aspect ratio, near/far), exactly the values a headset reports.

A frustum is one ``(6, 4)`` float64 array: row ``k`` is plane
``PLANE_NAMES[k]`` as ``[unit normal | offset]``, the plane being
``normal . x + offset = 0``.  Everything a conference does to frustums
per frame -- build them from predicted poses, push them out by the guard
band, carry them into each camera's frame, test pixel grids -- is a
row-wise array operation, so the module-level functions take any stack
``(..., 6, 4)`` of frustums and broadcast: the SFU builds all of a
conference's receivers at once and tests them against all cameras in one
pass (:func:`repro.prediction.culling.visibility`).  :class:`Frustum` wraps a single
``(6, 4)`` array for the callers that test one viewer's points.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Frustum",
    "unit_planes",
    "camera_planes",
    "expand_planes",
    "transform_planes",
    "planes_contain",
]

# The viewing device's optics: a 60 degree vertical field of view at
# 16:9, seeing from 10 cm to 10 m.
VERTICAL_FOV_DEG = 60.0
ASPECT = 16.0 / 9.0
NEAR_M = 0.1
FAR_M = 10.0


# ----------------------------------------------------------------------
# Plane rows: every function takes and returns (..., 4) / (..., 6, 4)
# ----------------------------------------------------------------------


def unit_planes(rows: np.ndarray) -> np.ndarray:
    """``[normal | offset]`` rows rescaled to unit normals.

    A row whose normal is (numerically) zero raises ``ValueError``:
    dividing it through would turn every test against the plane into a
    NaN comparison that silently culls.
    """
    rows = np.asarray(rows, dtype=np.float64)
    normals = rows[..., :3]
    norms = np.sqrt((normals * normals).sum(axis=-1, keepdims=True))
    if (norms < 1e-12).any():
        raise ValueError("plane normal must be nonzero")
    return rows / norms


def camera_planes(
    position: np.ndarray,
    rotation: np.ndarray,
    vertical_fov_deg: float,
    aspect: float,
    near_m: float,
    far_m: float,
) -> np.ndarray:
    """Frustum rows for viewer poses ``(..., 3)`` / ``(..., 3, 3)``.

    ``rotation`` maps viewer-local axes to world axes; viewer-local +Z
    is the view direction, +X right, +Y down (computer-vision
    convention, consistent with :mod:`repro.geometry.camera`).  Returns
    ``(..., 6, 4)`` in ``Frustum.PLANE_NAMES`` order.
    """
    if not 0 < vertical_fov_deg < 180:
        raise ValueError("vertical_fov_deg must be in (0, 180)")
    if not 0 < near_m < far_m:
        raise ValueError("require 0 < near_m < far_m")
    position = np.asarray(position, dtype=np.float64)
    rotation = np.asarray(rotation, dtype=np.float64)
    right = rotation[..., :, 0]
    down = rotation[..., :, 1]
    forward = rotation[..., :, 2]
    tan_v = np.tan(np.deg2rad(vertical_fov_deg) / 2.0)
    forward_h = forward * (tan_v * aspect)
    forward_v = forward * tan_v

    rows = np.empty(forward.shape[:-1] + (6, 4))
    normals = rows[..., :3]
    normals[..., 0, :] = forward
    np.negative(forward, out=normals[..., 1, :])
    # Side planes contain the eye; normals tilt inward by the half angle.
    np.add(forward_h, right, out=normals[..., 2, :])
    np.subtract(forward_h, right, out=normals[..., 3, :])
    np.add(forward_v, down, out=normals[..., 4, :])
    np.subtract(forward_v, down, out=normals[..., 5, :])
    rows[..., 3] = 0.0
    rows = unit_planes(rows)
    # Each plane passes through a known point: the eye pushed along the
    # view direction by near / far, and the eye itself for the sides.
    through = np.repeat(position[..., None, :], 6, axis=-2)
    through[..., 0, :] += forward * near_m
    through[..., 1, :] += forward * far_m
    rows[..., 3] = -(rows[..., :3] * through).sum(axis=-1)
    return rows


def expand_planes(planes: np.ndarray, guard_band_m: float) -> np.ndarray:
    """Every plane moved outward by ``guard_band_m`` (unit-normal rows).

    Implements the paper's guard band (default 20 cm) that absorbs
    pose-prediction error (section 3.4, Fig. 15).
    """
    if guard_band_m < 0:
        raise ValueError("guard_band_m must be non-negative")
    expanded = np.array(planes, dtype=np.float64)
    expanded[..., 3] += guard_band_m
    return expanded


def transform_planes(planes: np.ndarray, transforms: np.ndarray) -> np.ndarray:
    """Rows ``(..., 6, 4)`` mapped through rigid transforms ``(..., 4, 4)``.

    For a rigid transform T = [R | t], the plane (n, d) maps to
    (R n, d - (R n).t).  Leading axes broadcast, so ``planes[:, None]``
    against a ``(C, 4, 4)`` stack carries R frustums into C camera
    frames at once.
    """
    planes = np.asarray(planes, dtype=np.float64)
    transforms = np.asarray(transforms, dtype=np.float64)
    rotation_t = np.swapaxes(transforms[..., :3, :3], -1, -2)
    normals = np.matmul(planes[..., :3], rotation_t)
    shifts = np.matmul(normals, transforms[..., :3, 3, None])
    moved = np.empty(normals.shape[:-1] + (4,))
    moved[..., :3] = normals
    moved[..., 3] = planes[..., 3] - shifts[..., 0]
    return unit_planes(moved)


def planes_contain(planes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The six-plane test: which ``(..., P, 3)`` points lie inside which
    ``(..., 6, 4)`` frustums.  Leading axes broadcast; returns ``(..., P)``.

    The planes are the outer loop and every frustum of the stack is
    tested against its points in one product per plane; the loop stops
    as soon as no point anywhere is still inside.  (One ``(P, 3) @
    (3, 6)`` product for all six planes is slower on sensor-sized grids
    than six matrix-vector products that can stop early -- DESIGN.md §9.)
    """
    planes = np.asarray(planes, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    inside = None
    for k in range(6):
        plane = planes[..., k, :]
        distance = np.matmul(points, plane[..., :3, None])[..., 0]
        beyond = distance >= -plane[..., 3, None]
        if inside is None:
            inside = beyond
        else:
            inside &= beyond
        if not inside.any():
            break
    return inside


class Frustum:
    """Six-plane truncated viewing pyramid with inward normals."""

    PLANE_NAMES = ("near", "far", "left", "right", "top", "bottom")

    def __init__(self, planes: np.ndarray) -> None:
        """From ``(6, 4)`` ``[normal | offset]`` rows (any positive scale;
        stored with unit normals)."""
        planes = np.asarray(planes, dtype=np.float64)
        if planes.shape != (6, 4):
            raise ValueError(f"a frustum has exactly 6 planes, got shape {planes.shape}")
        self.array = unit_planes(planes)

    @classmethod
    def of_unit_rows(cls, array: np.ndarray) -> "Frustum":
        """Wrap ``(6, 4)`` rows already known to have unit normals (the
        output of this module's functions) without touching them."""
        frustum = cls.__new__(cls)
        frustum.array = array
        return frustum

    @staticmethod
    def from_camera(position: np.ndarray, rotation: np.ndarray) -> "Frustum":
        """The headset's frustum at one viewer pose (:func:`camera_planes`
        with the device optics above)."""
        return Frustum.of_unit_rows(
            camera_planes(position, rotation, VERTICAL_FOV_DEG, ASPECT, NEAR_M, FAR_M)
        )

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask: True for points inside or on the frustum.

        Vectorized six-plane test -- the core of LiVo's culling.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"expected (N, 3) points, got {points.shape}")
        return planes_contain(self.array, points)
