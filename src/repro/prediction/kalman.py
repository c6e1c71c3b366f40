"""Constant-velocity Kalman filtering of headset pose.

"LiVo predicts frustums by applying a Kalman Filter on the 6 dimensions
of receiver pose (position and orientation) based on prior work [38]"
(section 3.4).  Each of the 6 pose dimensions gets an independent
2-state (value, velocity) filter -- the structure Gul et al. use for
cloud-VR head-motion prediction.
"""

from __future__ import annotations

import numpy as np

from repro.prediction.pose import Pose

__all__ = ["ConstantVelocityKalman", "PoseKalmanPredictor"]

# Noise variances of every filter: white acceleration of unit variance
# against near-exact (1 cm standard deviation) pose reports.
PROCESS_NOISE = 1.0
MEASUREMENT_NOISE = 1e-4


class ConstantVelocityKalman:
    """Bank of independent 2-state constant-velocity Kalman filters.

    State per dimension: ``[value, velocity]``.  Vectorized over all
    dimensions, so one instance filters the whole 6-DoF pose; the first
    measurement fixes how many dimensions there are.
    """

    def __init__(self) -> None:
        self._state: np.ndarray | None = None
        # Per-dim 2x2 covariance, stored stacked.
        self._covariance: np.ndarray | None = None

    @property
    def initialized(self) -> bool:
        """True once at least one measurement has been folded in."""
        return self._state is not None

    def update(self, measurement: np.ndarray, dt: float) -> None:
        """Predict forward by ``dt`` then correct with a measurement."""
        measurement = np.asarray(measurement, dtype=np.float64)
        if self._state is None:
            if measurement.ndim != 1 or not measurement.size:
                raise ValueError("the first measurement must be a non-empty vector")
            self._state = np.zeros((measurement.size, 2))
            self._state[:, 0] = measurement
            self._covariance = np.tile(np.eye(2) * 1e3, (measurement.size, 1, 1))
            return
        if measurement.shape != (len(self._state),):
            raise ValueError(f"expected {len(self._state)}-vector measurement")
        if dt < 0:
            raise ValueError("dt must be non-negative")

        # Predict.
        transition = np.array([[1.0, dt], [0.0, 1.0]])
        # White-acceleration process noise (discretized).
        q = PROCESS_NOISE * np.array(
            [[dt**4 / 4.0, dt**3 / 2.0], [dt**3 / 2.0, dt**2]]
        )
        self._state = self._state @ transition.T
        self._covariance = transition @ self._covariance @ transition.T + q

        # Correct (H = [1, 0]).
        innovation = measurement - self._state[:, 0]
        s = self._covariance[:, 0, 0] + MEASUREMENT_NOISE
        gain = self._covariance[:, :, 0] / s[:, None]          # (D, 2)
        self._state = self._state + gain * innovation[:, None]
        identity = np.eye(2)
        correction = identity[None, :, :] - gain[:, :, None] @ np.array([[1.0, 0.0]])[None, :, :]
        self._covariance = correction @ self._covariance

    def predict(self, horizon_s: float) -> np.ndarray:
        """Extrapolate the filtered state ``horizon_s`` into the future."""
        if self._state is None:
            raise RuntimeError("filter has no measurements yet")
        if horizon_s < 0:
            raise ValueError("horizon_s must be non-negative")
        return self._state[:, 0] + self._state[:, 1] * horizon_s

    def velocity(self) -> np.ndarray:
        """Current velocity estimates per dimension."""
        if self._state is None:
            raise RuntimeError("filter has no measurements yet")
        return self._state[:, 1].copy()


class PoseKalmanPredictor:
    """Pose-level wrapper: feed observed poses, predict future poses."""

    def __init__(self) -> None:
        self._filter = ConstantVelocityKalman()
        self._last_time: float | None = None

    @property
    def ready(self) -> bool:
        """True once at least one pose has been observed."""
        return self._filter.initialized

    def observe(self, pose: Pose, timestamp_s: float) -> None:
        """Fold in a pose report from the receiver."""
        dt = 0.0 if self._last_time is None else max(timestamp_s - self._last_time, 0.0)
        self._filter.update(pose.as_vector(), dt)
        self._last_time = timestamp_s

    def predict_vector(self, horizon_s: float) -> np.ndarray:
        """The predicted pose as its flat 6-vector (``Pose.as_vector``
        layout), for callers that stack many receivers' predictions."""
        return self._filter.predict(horizon_s)

    def predict(self, horizon_s: float) -> Pose:
        """Predicted pose ``horizon_s`` beyond the last observation."""
        return Pose.from_vector(self.predict_vector(horizon_s))
