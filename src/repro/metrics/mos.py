"""User-study substitute: a QoE model mapping measurements to MOS.

The paper's user study (section 4.2) is IRB-gated human data we cannot
re-run, so -- per the reproduction's substitution rule -- we model it
explicitly.  The paper itself observes that its subjective results track
its objective results ("These results are consistent with our objective
evaluation, section 4.3"), so the model is a calibrated mapping

    MOS = clip(1 + a*(PSSIM_geom - floor) + b*(PSSIM_color - floor)
                 - c*stall_rate - d*(30 - fps)/30,  1, 5)

with coefficients anchored so the paper's four scheme-level outcomes
(LiVo 4.1, LiVo-NoCull 3.4, MeshReduce 2.5, Draco-Oracle 1.5) are
reproduced from their measured objective inputs.  Individual Likert
ratings add rater noise and rounding; the comment model (Table 5)
classifies the same measurements into frame-rate / stall / quality
comment categories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import FPS

__all__ = ["SessionQoE", "MOSModel", "CommentModel"]

# The model's coefficients (a, b, c, d and the floor above), anchored on
# the paper's four scheme-level MOS outcomes, and the spread of one
# rater's score around the model MOS.
GEOMETRY_GAIN = 0.036
COLOR_GAIN = 0.010
STALL_PENALTY = 3.0
FPS_PENALTY = 1.5
QUALITY_FLOOR = 20.0
RATER_NOISE = 0.6


@dataclass(frozen=True)
class SessionQoE:
    """The objective measurements a rating is derived from."""

    pssim_geometry: float
    pssim_color: float
    stall_rate: float
    mean_fps: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.stall_rate <= 1.0:
            raise ValueError("stall_rate must be in [0, 1]")
        if self.mean_fps < 0:
            raise ValueError("mean_fps must be non-negative")


class MOSModel:
    """Objective measurements -> mean opinion score on the 1-5 Likert scale."""

    def mean_opinion_score(self, qoe: SessionQoE) -> float:
        """Deterministic model MOS for a session's measurements."""
        score = (
            1.0
            + GEOMETRY_GAIN * max(qoe.pssim_geometry - QUALITY_FLOOR, 0.0)
            + COLOR_GAIN * max(qoe.pssim_color - QUALITY_FLOOR, 0.0)
            - STALL_PENALTY * qoe.stall_rate
            - FPS_PENALTY * max(FPS - qoe.mean_fps, 0.0) / FPS
        )
        return float(np.clip(score, 1.0, 5.0))

    def sample_ratings(self, qoe: SessionQoE, num_raters: int, seed: int = 0) -> np.ndarray:
        """Simulated Likert ratings: model MOS + rater noise, rounded.

        The paper collected 57 ratings per scheme over 20 participants.
        """
        if num_raters <= 0:
            raise ValueError("num_raters must be positive")
        rng = np.random.default_rng(seed)
        mos = self.mean_opinion_score(qoe)
        ratings = rng.normal(mos, RATER_NOISE, size=num_raters)
        return np.clip(np.rint(ratings), 1, 5).astype(int)


class CommentModel:
    """Table 5's comment categories from the same objective measurements.

    Maps a session's measurements to the probability of a participant's
    free-form comment rating frame rate / stalls / quality as Low,
    Medium, or High, then samples comment counts.
    """

    @staticmethod
    def _bucket_probabilities(value: float, low_cut: float, high_cut: float) -> np.ndarray:
        """Soft three-bucket assignment around two thresholds."""
        span = max(high_cut - low_cut, 1e-9)
        position = (value - low_cut) / span  # <0 low, >1 high
        high = float(np.clip(position, 0.0, 1.0))
        low = float(np.clip(1.0 - position, 0.0, 1.0))
        # Smooth the middle mass.
        middle = max(1.0 - abs(2.0 * position - 1.0), 0.0)
        raw = np.array([low, middle, high])
        return raw / raw.sum()

    def frame_rate_probabilities(self, qoe: SessionQoE) -> np.ndarray:
        """P(comment rates frame rate Low/Medium/High)."""
        return self._bucket_probabilities(qoe.mean_fps, 12.0, 29.0)

    def stall_probabilities(self, qoe: SessionQoE) -> np.ndarray:
        """P(comment rates stalls Low/Medium/High). High = many stalls."""
        return self._bucket_probabilities(qoe.stall_rate, 0.02, 0.4)

    def quality_probabilities(self, qoe: SessionQoE) -> np.ndarray:
        """P(comment rates quality Low/Medium/High)."""
        return self._bucket_probabilities(qoe.pssim_geometry, 55.0, 86.0)

    def sample_comments(
        self, qoe: SessionQoE, num_comments: int, seed: int = 0
    ) -> dict[str, np.ndarray]:
        """Sampled L/M/H counts per category for ``num_comments`` comments."""
        if num_comments <= 0:
            raise ValueError("num_comments must be positive")
        rng = np.random.default_rng(seed)
        return {
            "frame_rate": rng.multinomial(num_comments, self.frame_rate_probabilities(qoe)),
            "stalls": rng.multinomial(num_comments, self.stall_probabilities(qoe)),
            "quality": rng.multinomial(num_comments, self.quality_probabilities(qoe)),
        }
