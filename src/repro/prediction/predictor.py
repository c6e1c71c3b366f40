"""Frustum prediction with guard-band expansion (section 3.4).

The sender combines (a) the Kalman-predicted receiver pose at
``t + delta_t`` (delta_t = half the smoothed RTT), (b) the viewing
device's optics, and (c) a guard band that absorbs prediction error
("an epsilon of 20 cm represents a sweet-spot", Fig. 15).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import GUARD_BAND_M
from repro.geometry.frustum import (
    ASPECT, FAR_M, NEAR_M, VERTICAL_FOV_DEG, Frustum, camera_planes, expand_planes,
)
from repro.geometry.transforms import euler_to_rotation
from repro.prediction.kalman import PoseKalmanPredictor
from repro.prediction.pose import Pose

__all__ = ["ViewingDevice", "FrustumPredictor", "guarded_planes"]


@dataclass(frozen=True)
class ViewingDevice:
    """The headset the receiver shares at connection setup: its optics
    are :mod:`repro.geometry.frustum`'s ``VERTICAL_FOV_DEG``, ``ASPECT``,
    ``NEAR_M`` and ``FAR_M``."""

    def planes_for(self, pose_vectors: np.ndarray) -> np.ndarray:
        """Exact frustum rows ``(..., 6, 4)`` for pose 6-vectors
        ``(..., 6)`` (``Pose.as_vector`` layout) on this device."""
        pose_vectors = np.asarray(pose_vectors, dtype=np.float64)
        return camera_planes(
            pose_vectors[..., :3],
            euler_to_rotation(
                pose_vectors[..., 3], pose_vectors[..., 4], pose_vectors[..., 5]
            ),
            vertical_fov_deg=VERTICAL_FOV_DEG,
            aspect=ASPECT,
            near_m=NEAR_M,
            far_m=FAR_M,
        )

    def frustum_for(self, pose: Pose) -> Frustum:
        """Exact frustum for a pose on this device."""
        return Frustum.of_unit_rows(self.planes_for(pose.as_vector()))


class FrustumPredictor:
    """Kalman pose prediction + device optics + guard band."""

    def __init__(
        self,
        device: ViewingDevice | None = None,
        guard_band_m: float = GUARD_BAND_M,
    ) -> None:
        if guard_band_m < 0:
            raise ValueError("guard_band_m must be non-negative")
        self.device = device or ViewingDevice()
        self.guard_band_m = float(guard_band_m)
        self._kalman = PoseKalmanPredictor()

    @property
    def ready(self) -> bool:
        """True once at least one pose report has arrived."""
        return self._kalman.ready

    def observe(self, pose: Pose, timestamp_s: float) -> None:
        """Fold in a (delayed) pose report from the receiver."""
        self._kalman.observe(pose, timestamp_s)

    def predict_pose(self, horizon_s: float) -> Pose:
        """Predicted receiver pose ``horizon_s`` past the last report."""
        return self._kalman.predict(horizon_s)

    def predict_vector(self, horizon_s: float) -> np.ndarray:
        """:meth:`predict_pose` as a flat 6-vector."""
        return self._kalman.predict_vector(horizon_s)

    def predict_frustum(self, horizon_s: float) -> Frustum:
        """Guard-band-expanded frustum at the prediction horizon."""
        return Frustum.of_unit_rows(
            guarded_planes(
                self.device, self.guard_band_m, self.predict_vector(horizon_s)
            )
        )


def guarded_planes(
    device: ViewingDevice, guard_band_m: float, pose_vectors: np.ndarray
) -> np.ndarray:
    """Guard-band-expanded frustum rows for predicted pose vectors.

    One predictor's frame is ``pose_vectors`` of shape ``(6,)``; an SFU
    node stacks all its ready receivers ``(R, 6)`` and gets their
    ``(R, 6, 4)`` rows from one pass.
    """
    planes = device.planes_for(pose_vectors)
    if guard_band_m > 0:
        planes = expand_planes(planes, guard_band_m)
    return planes
