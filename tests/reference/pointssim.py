"""PointSSIM one pair at a time.

The oracle for ``repro.metrics.pointssim``: the scalar comparison half
the package's fused :func:`~repro.metrics.pointssim.pointssim_batch`
replaced.  Each direction of the symmetric pooling queries, compares and
reduces its own arrays; the batch concatenates every direction and runs
the elementwise tail once, and must agree with this body bit for bit
(``tests/test_pointssim_oracle.py``).  Feature extraction and the
stratified subsample are the package's own: the batch and this oracle
build features the same way and differ only in the comparison.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.pointcloud import PointCloud
from repro.metrics.pointssim import (
    CloudFeatures,
    PSSIMResult,
    precompute_features,
    stratified_subsample,
)


def _feature_similarity(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    denominator = np.maximum(np.abs(fa), np.abs(fb))
    similarity = np.ones_like(fa)
    nonzero = denominator > 1e-12
    similarity[nonzero] = 1.0 - np.abs(fa[nonzero] - fb[nonzero]) / denominator[nonzero]
    return np.clip(similarity, 0.0, 1.0)


def pointssim_from_features(
    reference: CloudFeatures,
    distorted: CloudFeatures,
    proximity_scale: float | None = None,
) -> PSSIMResult:
    """PointSSIM from two clouds' precomputed features."""
    diagonal = float(np.linalg.norm(reference.hi - reference.lo))
    if proximity_scale is None:
        proximity_scale = max(diagonal * 0.015, 1e-6)

    scores_geometry = []
    scores_color = []
    for a, b in ((reference, distorted), (distorted, reference)):
        nn_distance, nn_index = b.tree.query(a.positions)
        geometry_similarity = _feature_similarity(a.geometry, b.geometry[nn_index])
        proximity = np.exp(-((nn_distance / proximity_scale) ** 2))
        scores_geometry.append(float((geometry_similarity * proximity).mean()))
        color_similarity = _feature_similarity(a.color, b.color[nn_index])
        scores_color.append(float(color_similarity.mean()))

    return PSSIMResult(
        geometry=100.0 * float(np.mean(scores_geometry)),
        color=100.0 * float(np.mean(scores_color)),
    )


def pointssim(
    reference: PointCloud,
    distorted: PointCloud,
    k: int = 9,
    proximity_scale: float | None = None,
    max_points: int | None = None,
    seed: int = 0,
) -> PSSIMResult:
    """The package's ``pointssim`` contract, scored through the scalar path."""
    if reference.is_empty:
        raise ValueError("reference cloud must not be empty")
    if distorted.is_empty:
        return PSSIMResult(0.0, 0.0)
    if max_points is not None:
        reference = stratified_subsample(reference, max_points, seed)
        distorted = stratified_subsample(distorted, max_points, seed)
    return pointssim_from_features(
        precompute_features(reference, k),
        precompute_features(distorted, k),
        proximity_scale,
    )
