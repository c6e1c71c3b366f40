"""Rigid 3D transforms.

All rotations follow the right-hand rule.  Euler angles use the intrinsic
XYZ (pitch, yaw, roll) convention and are expressed in radians.  Points are
stored as ``(N, 3)`` float arrays; homogeneous transforms as ``(4, 4)``
float64 matrices mapping column vectors (``p' = T @ p``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "rotation_x",
    "rotation_y",
    "rotation_z",
    "euler_to_rotation",
    "rotation_to_euler",
    "make_transform",
    "invert_transform",
    "transform_points",
    "look_at",
]


def _axis_rotation(angle, axis: int) -> np.ndarray:
    """Rotation about coordinate axis ``axis`` by ``angle`` radians; an
    array of angles gives a stack of matrices ``angle.shape + (3, 3)``."""
    c, s = np.cos(angle), np.sin(angle)
    i, j = (axis + 1) % 3, (axis + 2) % 3
    rotation = np.zeros(np.shape(angle) + (3, 3))
    rotation[..., axis, axis] = 1.0
    rotation[..., i, i] = c
    rotation[..., i, j] = -s
    rotation[..., j, i] = s
    rotation[..., j, j] = c
    return rotation


def rotation_x(angle: float) -> np.ndarray:
    """Rotation matrix about the X axis by ``angle`` radians."""
    return _axis_rotation(angle, 0)


def rotation_y(angle: float) -> np.ndarray:
    """Rotation matrix about the Y axis by ``angle`` radians."""
    return _axis_rotation(angle, 1)


def rotation_z(angle: float) -> np.ndarray:
    """Rotation matrix about the Z axis by ``angle`` radians."""
    return _axis_rotation(angle, 2)


def euler_to_rotation(pitch: float, yaw: float, roll: float) -> np.ndarray:
    """Build a rotation matrix from intrinsic XYZ Euler angles.

    ``R = Rx(pitch) @ Ry(yaw) @ Rz(roll)``.  This is the convention used
    for headset poses throughout the reproduction (paper section 3.4
    tracks position and orientation as 6 scalar dimensions).  Arrays of
    angles give a stack of matrices, each the product the scalar call
    computes.
    """
    return rotation_x(pitch) @ rotation_y(yaw) @ rotation_z(roll)


def rotation_to_euler(rotation: np.ndarray) -> tuple[float, float, float]:
    """Recover intrinsic XYZ Euler angles from a rotation matrix.

    Inverse of :func:`euler_to_rotation`.  Returns ``(pitch, yaw, roll)``
    in radians.  At the gimbal-lock singularity (``|R[0, 2]| == 1``) roll
    is set to zero and the remaining freedom is absorbed into pitch.
    """
    rotation = np.asarray(rotation, dtype=np.float64)
    sy = np.clip(rotation[0, 2], -1.0, 1.0)
    yaw = float(np.arcsin(sy))
    if abs(sy) < 1.0 - 1e-9:
        pitch = float(np.arctan2(-rotation[1, 2], rotation[2, 2]))
        roll = float(np.arctan2(-rotation[0, 1], rotation[0, 0]))
    else:
        pitch = float(np.arctan2(rotation[1, 0], rotation[1, 1]))
        roll = 0.0
    return pitch, yaw, roll


def make_transform(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """Assemble a 4x4 homogeneous transform from R (3x3) and t (3,)."""
    transform = np.eye(4)
    transform[:3, :3] = rotation
    transform[:3, 3] = np.asarray(translation, dtype=np.float64)
    return transform


def invert_transform(transform: np.ndarray) -> np.ndarray:
    """Invert a rigid homogeneous transform without a general inverse.

    Exploits orthonormality of the rotation block, which is both faster
    and numerically safer than ``np.linalg.inv``.
    """
    rotation = transform[:3, :3]
    translation = transform[:3, 3]
    inverse = np.eye(4)
    inverse[:3, :3] = rotation.T
    inverse[:3, 3] = -rotation.T @ translation
    return inverse


def transform_points(transform: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply a 4x4 homogeneous transform to an ``(N, 3)`` point array."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"expected (N, 3) points, got shape {points.shape}")
    return points @ transform[:3, :3].T + transform[:3, 3]


def look_at(eye: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Camera-to-world transform for a camera at ``eye`` looking at ``target``.

    Follows the computer-vision convention: camera +Z points toward the
    target (forward), +X right, +Y down, world +Y up.  Used to aim the
    simulated RGB-D cameras at the scene center.
    """
    eye = np.asarray(eye, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    up = np.array([0.0, 1.0, 0.0])

    forward = target - eye
    norm = np.linalg.norm(forward)
    if norm < 1e-12:
        raise ValueError("eye and target coincide; cannot derive a view direction")
    forward = forward / norm

    right = np.cross(forward, up)
    norm = np.linalg.norm(right)
    if norm < 1e-9:
        # Forward is parallel to up; pick an arbitrary perpendicular axis.
        fallback = np.array([1.0, 0.0, 0.0])
        right = np.cross(forward, fallback)
        norm = np.linalg.norm(right)
    right = right / norm
    down = np.cross(forward, right)

    rotation = np.stack([right, down, forward], axis=1)
    return make_transform(rotation, eye)
