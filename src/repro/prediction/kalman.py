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


class ConstantVelocityKalman:
    """Bank of independent 2-state constant-velocity Kalman filters.

    State per dimension: ``[value, velocity]``.  Vectorized over all
    dimensions, so one instance filters the whole 6-DoF pose.
    """

    def __init__(
        self,
        num_dims: int = 6,
        process_noise: float = 1.0,
        measurement_noise: float = 1e-4,
    ) -> None:
        if num_dims <= 0:
            raise ValueError("num_dims must be positive")
        if process_noise <= 0 or measurement_noise <= 0:
            raise ValueError("noise variances must be positive")
        self.num_dims = num_dims
        self.process_noise = float(process_noise)
        self.measurement_noise = float(measurement_noise)
        self._state = np.zeros((num_dims, 2))
        # Per-dim 2x2 covariance, stored stacked.
        self._covariance = np.tile(np.eye(2) * 1e3, (num_dims, 1, 1))
        self._initialized = False

    @property
    def initialized(self) -> bool:
        """True once at least one measurement has been folded in."""
        return self._initialized

    def update(self, measurement: np.ndarray, dt: float) -> None:
        """Predict forward by ``dt`` then correct with a measurement."""
        measurement = np.asarray(measurement, dtype=np.float64)
        if measurement.shape != (self.num_dims,):
            raise ValueError(f"expected {self.num_dims}-vector measurement")
        if not self._initialized:
            self._state[:, 0] = measurement
            self._state[:, 1] = 0.0
            self._initialized = True
            return
        if dt < 0:
            raise ValueError("dt must be non-negative")

        # Predict.
        transition = np.array([[1.0, dt], [0.0, 1.0]])
        # White-acceleration process noise (discretized).
        q = self.process_noise * np.array(
            [[dt**4 / 4.0, dt**3 / 2.0], [dt**3 / 2.0, dt**2]]
        )
        self._state = self._state @ transition.T
        self._covariance = transition @ self._covariance @ transition.T + q

        # Correct (H = [1, 0]).
        innovation = measurement - self._state[:, 0]
        s = self._covariance[:, 0, 0] + self.measurement_noise
        gain = self._covariance[:, :, 0] / s[:, None]          # (D, 2)
        self._state = self._state + gain * innovation[:, None]
        identity = np.eye(2)
        correction = identity[None, :, :] - gain[:, :, None] @ np.array([[1.0, 0.0]])[None, :, :]
        self._covariance = correction @ self._covariance

    def predict(self, horizon_s: float) -> np.ndarray:
        """Extrapolate the filtered state ``horizon_s`` into the future."""
        if not self._initialized:
            raise RuntimeError("filter has no measurements yet")
        if horizon_s < 0:
            raise ValueError("horizon_s must be non-negative")
        return self._state[:, 0] + self._state[:, 1] * horizon_s

    def velocity(self) -> np.ndarray:
        """Current velocity estimates per dimension."""
        return self._state[:, 1].copy()


class PoseKalmanPredictor:
    """Pose-level wrapper: feed observed poses, predict future poses."""

    def __init__(
        self, process_noise: float = 1.0, measurement_noise: float = 1e-4
    ) -> None:
        self._filter = ConstantVelocityKalman(6, process_noise, measurement_noise)
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
