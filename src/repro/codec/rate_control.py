"""Rate control: target bytes in, QP out.

Implements the property that makes 2D codecs *directly* bandwidth
adaptive (paper section 1): the application hands the encoder a target
rate and the encoder picks the quality parameter internally.

The controller maintains an exponential rate model

    size(qp) = alpha * 2^(-qp / 6)

(one halving of size per +6 QP, the H.26x step-doubling rule).  After
each frame, ``alpha`` is re-estimated from the observed (QP, size) pair
and smoothed; the next proposal inverts the model.  Per-frame QP motion
is clamped to avoid visible quality oscillation.
"""

from __future__ import annotations

import math

from repro.codec.quant import QP_MAX, QP_MAX_EXTENDED, QP_MIN

__all__ = ["RateController"]

INITIAL_QP = 32         # the first frame's QP, before any observation
MAX_STEP = 6            # largest per-frame QP move (one size halving)
SMOOTHING = 0.5         # weight of a new observation in the model's alpha
RETRY_OVERSHOOT = 1.3   # size/target ratio past which a frame is re-encoded


class RateController:
    """Exponential-model rate controller with clamped QP steps."""

    def __init__(self, qp_max: int = QP_MAX) -> None:
        if not QP_MIN < qp_max <= QP_MAX_EXTENDED:
            raise ValueError("require QP_MIN < qp_max <= QP_MAX_EXTENDED")
        self.qp_max = qp_max
        self._last_qp = int(min(max(INITIAL_QP, QP_MIN), qp_max))
        self._alpha: float | None = None

    @property
    def last_qp(self) -> int:
        """QP used for the most recent frame."""
        return self._last_qp

    def _model_qp(self, target_bytes: int) -> float:
        assert self._alpha is not None
        if target_bytes <= 0:
            return float(self.qp_max)
        return 6.0 * math.log2(self._alpha / target_bytes)

    def propose_qp(self, target_bytes: int) -> int:
        """QP to use for the next frame at the given byte budget."""
        if self._alpha is None:
            return self._last_qp
        raw = self._model_qp(target_bytes)
        stepped = min(max(raw, self._last_qp - MAX_STEP), self._last_qp + MAX_STEP)
        return int(round(min(max(stepped, QP_MIN), self.qp_max)))

    def retry_qp(self, qp_used: int, size_bytes: int, target_bytes: int) -> int | None:
        """QP for a one-shot re-encode, or None if the first try is fine.

        A retry is requested only on a large overshoot: undershoot wastes
        a little bandwidth, but overshoot causes queueing and stalls
        (paper section 4.3: "LiVo's infrequent stalls occur when the
        rate-adaptive codec overshoots the bandwidth target").
        """
        if size_bytes <= target_bytes * RETRY_OVERSHOOT:
            return None
        # From the observed point: bits halve per +6 QP.
        needed = 6.0 * math.log2(size_bytes / target_bytes)
        retry = int(round(qp_used + max(needed, 1.0)))
        retry = min(max(retry, QP_MIN), self.qp_max)
        return retry if retry > qp_used else None

    def update(self, qp_used: int, size_bytes: int, target_bytes: int) -> None:
        """Fold an observed (QP, size) pair into the rate model."""
        if size_bytes <= 0:
            return
        observed_alpha = size_bytes * (2.0 ** (qp_used / 6.0))
        if self._alpha is None:
            self._alpha = observed_alpha
        else:
            self._alpha += SMOOTHING * (observed_alpha - self._alpha)
        self._last_qp = int(qp_used)
