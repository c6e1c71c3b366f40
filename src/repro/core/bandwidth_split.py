"""Adaptive bandwidth splitting (section 3.3).

The split ``s`` is the fraction of the GCC bandwidth estimate allocated
to the depth stream.  LiVo repeatedly encodes, decodes at the sender,
measures depth and color RMSE against the ground-truth tiled frames,
and additively steps ``s`` via multi-dimensional line search:

- ``|RMSE_d - RMSE_c| <= epsilon`` -> hold;
- ``RMSE_d - RMSE_c > epsilon`` -> ``s += delta`` (depth needs more);
- otherwise -> ``s -= delta``;

with ``0.5 <= s <= 0.9``: the floor keeps depth favored (humans are
depth-sensitive), the ceiling stops starvation of color at low
bandwidth.
"""

from __future__ import annotations

__all__ = ["SplitController"]


class SplitController:
    """Additive line search on the depth/color bandwidth split."""

    def __init__(
        self,
        initial: float = 0.7,
        minimum: float = 0.5,
        maximum: float = 0.9,
        step: float = 0.005,
        epsilon: float = 0.5,
        frozen: bool = False,
    ) -> None:
        """``frozen=True`` pins the split at ``initial`` -- the *static*
        split variants of Fig. 18/19 use this."""
        if not 0.0 < minimum < maximum <= 1.0:
            raise ValueError("require 0 < minimum < maximum <= 1")
        if not minimum <= initial <= maximum:
            raise ValueError("initial split must lie within bounds")
        if step <= 0:
            raise ValueError("step must be positive")
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        self.minimum = float(minimum)
        self.maximum = float(maximum)
        self.step = float(step)
        self.epsilon = float(epsilon)
        self.frozen = bool(frozen)
        self._split = float(initial)

    @property
    def split(self) -> float:
        """Current depth-stream fraction of the bandwidth estimate."""
        return self._split

    def update(self, depth_rmse: float, color_rmse: float) -> float:
        """One line-search step from a fresh (depth, color) RMSE pair.

        RMSE values must be on comparable scales (the session normalizes
        16-bit depth RMSE into 8-bit-equivalent units).
        """
        if depth_rmse < 0 or color_rmse < 0:
            raise ValueError("RMSE values must be non-negative")
        if self.frozen:
            return self._split
        difference = depth_rmse - color_rmse
        if difference > self.epsilon:
            self._split = min(self._split + self.step, self.maximum)
        elif difference < -self.epsilon:
            self._split = max(self._split - self.step, self.minimum)
        return self._split

    def allocate(self, target_bytes: float) -> tuple[int, int]:
        """Split a per-frame byte budget into (depth, color) budgets."""
        if target_bytes <= 0:
            raise ValueError("target_bytes must be positive")
        depth = max(1, int(target_bytes * self._split))
        color = max(1, int(target_bytes - depth))
        return depth, color

