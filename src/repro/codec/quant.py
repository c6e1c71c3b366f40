"""Quantization: the lossy, rate-controlling stage.

Follows H.26x conventions: an integer quality parameter QP in [0, 51]
maps exponentially to a quantization step (doubling every 6 QP), and a
dead-zone uniform quantizer divides DCT coefficients by that step.  An
optional frequency-weighting matrix quantizes high frequencies more
coarsely, as perceptual codecs do for *color*; depth planes use a flat
matrix because depth discontinuities live in high frequencies and
humans are highly sensitive to depth error (paper sections 3.2-3.3).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "QP_MIN",
    "QP_MAX",
    "qp_to_step",
    "weight_matrix",
    "quantize",
    "dequantize",
]

QP_MIN = 0
QP_MAX = 51
# High-bit-depth extension: H.265 widens the usable QP range for
# greater-than-8-bit content (internally via QpBdOffset).  Our 16-bit Y
# mode mirrors that: 8 extra bits of dynamic range buy 48 extra QP
# (6 QP per doubling), letting rate control reach small frame sizes on
# 16-bit planes.  Step size remains a function of QP alone -- which is
# exactly why LiVo's depth *scaling* helps (section 3.2).
QP_MAX_EXTENDED = QP_MAX + 48

# Dead-zone rounding offset: < 0.5 biases small coefficients toward zero,
# which is where most of the rate saving comes from.
DEAD_ZONE_OFFSET = 1.0 / 3.0


def qp_to_step(qp: float) -> float:
    """H.26x-style step size: doubles every 6 QP, step(4) = 1.

    QP above :data:`QP_MAX` is legal only for 16-bit planes (the
    high-bit-depth extension); callers enforce their own plane limits.
    """
    if not QP_MIN <= qp <= QP_MAX_EXTENDED:
        raise ValueError(f"QP must be within [{QP_MIN}, {QP_MAX_EXTENDED}], got {qp}")
    return float(2.0 ** ((qp - 4.0) / 6.0))


def weight_matrix(block_size: int, strength: float = 1.0) -> np.ndarray:
    """Frequency weights: 1.0 at DC, growing linearly with frequency index.

    ``strength = 0`` yields a flat matrix (all ones).
    """
    if strength < 0:
        raise ValueError("strength must be non-negative")
    u = np.arange(block_size)
    radial = (u[:, None] + u[None, :]) / (2.0 * (block_size - 1))
    return 1.0 + strength * 2.0 * radial


def quantize(
    coefficients: np.ndarray,
    qp: float,
    weights: np.ndarray | None = None,
    scale=None,
) -> np.ndarray:
    """Dead-zone quantize a coefficient stack to int32 levels.

    ``scale`` lets a caller supply the precomputed divisor -- ``step``
    when ``weights`` is None, ``step * weights`` otherwise (see
    :func:`repro.perf.scratch.quant_scale`).  It must equal
    what this function would compute; it exists purely to skip the
    recomputation, so results are bit-identical either way.
    """
    if scale is None:
        step = qp_to_step(qp)
        scale = step if weights is None else step * weights
    scaled = coefficients / scale
    levels = np.sign(scaled) * np.floor(np.abs(scaled) + DEAD_ZONE_OFFSET)
    return levels.astype(np.int32)


def dequantize(
    levels: np.ndarray,
    qp: float,
    weights: np.ndarray | None = None,
    scale=None,
) -> np.ndarray:
    """Reconstruct coefficients from quantization levels.

    ``scale`` mirrors :func:`quantize`: the precomputed multiplier,
    identical in value to the internally derived one.
    """
    if scale is None:
        step = qp_to_step(qp)
        scale = step if weights is None else step * weights
    return levels.astype(np.float64) * scale
