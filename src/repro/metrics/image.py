"""2D pixel metrics.

LiVo's split controller estimates encoding quality with "the
root-mean-square error (RMSE) in pixel values between the original
(depth or color) frame and the decoded frame" because it is "far more
compute-efficient" than reconstructing point clouds at the sender
(section 3.3).
"""

from __future__ import annotations

import numpy as np

__all__ = ["rmse"]


def rmse(reference: np.ndarray, distorted: np.ndarray) -> float:
    """Root-mean-square pixel error between two same-shaped images."""
    reference = np.asarray(reference, dtype=np.float64)
    distorted = np.asarray(distorted, dtype=np.float64)
    if reference.shape != distorted.shape:
        raise ValueError(
            f"shape mismatch: {reference.shape} vs {distorted.shape}"
        )
    return float(np.sqrt(((reference - distorted) ** 2).mean()))
