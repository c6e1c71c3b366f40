"""MLP pose predictor (the learned baseline of Fig. 16).

ViVo trains viewport predictors from user traces; the paper asks
whether "an MLP with 3 hidden layers used in ViVo could learn
effectively from a small number of our traces" and finds small networks
(3 hidden units) predict poorly while 64-unit networks approach the
Kalman filter on position.  This is a small from-scratch NumPy MLP
(Adam + MSE) that maps a window of past poses to the pose one horizon
ahead.
"""

from __future__ import annotations

import numpy as np

from repro.prediction.pose import PoseTrace

__all__ = ["MLPPosePredictor"]

# Adam's minibatch size and step size for every fit.
BATCH_SIZE = 64
LEARNING_RATE = 1e-3


class MLPPosePredictor:
    """Window-of-poses -> future-pose regressor with 3 hidden layers."""

    def __init__(
        self,
        hidden_units: int = 32,
        window: int = 5,
        horizon_frames: int = 3,
        seed: int = 0,
    ) -> None:
        if hidden_units <= 0 or window <= 0 or horizon_frames <= 0:
            raise ValueError("hidden_units, window, horizon_frames must be positive")
        self.hidden_units = hidden_units
        self.window = window
        self.horizon_frames = horizon_frames
        rng = np.random.default_rng(seed)
        sizes = [window * 6, hidden_units, hidden_units, hidden_units, 6]
        self._weights = [
            rng.normal(0, np.sqrt(2.0 / sizes[i]), size=(sizes[i], sizes[i + 1]))
            for i in range(len(sizes) - 1)
        ]
        self._biases = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]
        self._input_mean = np.zeros(window * 6)
        self._input_std = np.ones(window * 6)
        self._trained = False

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------

    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        activations = [x]
        h = x
        for layer in range(len(self._weights) - 1):
            h = np.maximum(h @ self._weights[layer] + self._biases[layer], 0.0)
            activations.append(h)
        out = h @ self._weights[-1] + self._biases[-1]
        return out, activations

    def _dataset(self, traces: list[PoseTrace]) -> tuple[np.ndarray, np.ndarray]:
        """Windows of absolute poses in, horizon pose out.

        This mirrors ViVo's predictor: the network regresses the future
        viewport from a window of past viewports.  Absolute-coordinate
        regression is exactly what makes capacity matter (Fig. 16): a
        3-unit bottleneck cannot represent the trajectory manifold of
        even a few traces, while 64 units can.
        """
        inputs, targets = [], []
        for trace in traces:
            matrix = trace.as_matrix()
            last_start = len(matrix) - self.window - self.horizon_frames
            for start in range(max(last_start, 0)):
                window = matrix[start : start + self.window].ravel()
                target = matrix[start + self.window + self.horizon_frames - 1]
                inputs.append(window)
                targets.append(target)
        if not inputs:
            raise ValueError("traces too short for the window/horizon")
        return np.stack(inputs), np.stack(targets)

    def fit(
        self,
        traces: list[PoseTrace],
        epochs: int = 200,
        seed: int = 0,
    ) -> float:
        """Train on pose traces; returns the final epoch's mean loss."""
        inputs, targets = self._dataset(traces)
        self._input_mean = inputs.mean(axis=0)
        self._input_std = inputs.std(axis=0) + 1e-8
        inputs = (inputs - self._input_mean) / self._input_std

        rng = np.random.default_rng(seed)
        # Adam state.
        m_w = [np.zeros_like(w) for w in self._weights]
        v_w = [np.zeros_like(w) for w in self._weights]
        m_b = [np.zeros_like(b) for b in self._biases]
        v_b = [np.zeros_like(b) for b in self._biases]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
        final_loss = float("inf")

        for _ in range(epochs):
            order = rng.permutation(len(inputs))
            losses = []
            for start in range(0, len(order), BATCH_SIZE):
                batch = order[start : start + BATCH_SIZE]
                x, y = inputs[batch], targets[batch]
                out, activations = self._forward(x)
                error = out - y
                losses.append(float((error**2).mean()))

                # Backprop.
                grad = 2.0 * error / len(batch)
                grads_w, grads_b = [], []
                for layer in reversed(range(len(self._weights))):
                    grads_w.append(activations[layer].T @ grad)
                    grads_b.append(grad.sum(axis=0))
                    if layer > 0:
                        grad = grad @ self._weights[layer].T
                        grad = grad * (activations[layer] > 0)
                grads_w.reverse()
                grads_b.reverse()

                step += 1
                for layer in range(len(self._weights)):
                    m_w[layer] = beta1 * m_w[layer] + (1 - beta1) * grads_w[layer]
                    v_w[layer] = beta2 * v_w[layer] + (1 - beta2) * grads_w[layer] ** 2
                    m_hat = m_w[layer] / (1 - beta1**step)
                    v_hat = v_w[layer] / (1 - beta2**step)
                    self._weights[layer] -= LEARNING_RATE * m_hat / (np.sqrt(v_hat) + eps)
                    m_b[layer] = beta1 * m_b[layer] + (1 - beta1) * grads_b[layer]
                    v_b[layer] = beta2 * v_b[layer] + (1 - beta2) * grads_b[layer] ** 2
                    m_hat = m_b[layer] / (1 - beta1**step)
                    v_hat = v_b[layer] / (1 - beta2**step)
                    self._biases[layer] -= LEARNING_RATE * m_hat / (np.sqrt(v_hat) + eps)
            final_loss = float(np.mean(losses))
        self._trained = True
        return final_loss

    def predict(self, recent_poses: np.ndarray) -> np.ndarray:
        """Predict the pose ``horizon_frames`` beyond a pose window.

        Args:
            recent_poses: ``(window, 6)`` matrix of the latest poses.

        Returns:
            Predicted 6-vector pose.
        """
        if not self._trained:
            raise RuntimeError("predictor is not trained")
        recent_poses = np.asarray(recent_poses, dtype=np.float64)
        if recent_poses.shape != (self.window, 6):
            raise ValueError(f"expected ({self.window}, 6) pose window")
        x = (recent_poses.ravel() - self._input_mean) / self._input_std
        out, _ = self._forward(x[None, :])
        return out[0]

    def evaluate(self, traces: list[PoseTrace]) -> tuple[float, float]:
        """Mean position error (m) and rotation error (deg) on traces.

        The two numbers Fig. 16 reports.
        """
        inputs, targets = self._dataset(traces)
        x = (inputs - self._input_mean) / self._input_std
        out, _ = self._forward(x)
        position_error = float(np.linalg.norm(out[:, :3] - targets[:, :3], axis=1).mean())
        rotation_error = float(
            np.rad2deg(np.abs(out[:, 3:] - targets[:, 3:])).mean()
        )
        return position_error, rotation_error
