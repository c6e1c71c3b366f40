"""PointSSIM's one implementation against its scalar oracle.

``pointssim`` and ``pointssim_batch`` must equal
``tests/reference/pointssim.py`` bit for bit: on random clouds with
n = 1 and coincident points always drawn, with and without the
subsample bound, and when pairs share a cloud inside one batch.  The
scorer keeps nothing between calls, so two clouds that differ only in a
few rows score as themselves when scored back to back.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry.pointcloud import PointCloud
from repro.metrics.pointssim import pointssim, pointssim_batch
from tests.reference import pointssim as reference


def _cloud(n: int, seed: int, span: int, duplicates: int) -> PointCloud:
    """``n`` points on a 1 cm grid ``span`` cells wide (ties in every
    k-NN query), plus ``duplicates`` copies of existing points."""
    rng = np.random.default_rng(seed)
    positions = rng.integers(-span, span + 1, size=(n, 3)) * 0.01
    colors = rng.integers(0, 256, size=(n, 3)).astype(np.uint8)
    picks = rng.integers(0, n, size=duplicates)
    return PointCloud(
        np.concatenate([positions, positions[picks]]),
        np.concatenate([colors, colors[picks]]),
    )


def _assert_identical(got, expected):
    assert got.geometry == expected.geometry
    assert got.color == expected.color


@given(
    n_reference=st.integers(1, 80),
    n_distorted=st.integers(1, 80),
    duplicates=st.integers(0, 20),
    span=st.integers(1, 40),
    k=st.integers(1, 12),
    max_points=st.one_of(st.none(), st.integers(1, 100)),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_reference=1, n_distorted=1, duplicates=0, span=1, k=9, max_points=None, seed=0)
@example(n_reference=1, n_distorted=5, duplicates=3, span=2, k=9, max_points=1, seed=0)
@example(n_reference=30, n_distorted=1, duplicates=10, span=1, k=4, max_points=None, seed=1)
@example(n_reference=60, n_distorted=50, duplicates=20, span=3, k=9, max_points=16, seed=2)
@settings(max_examples=60, deadline=None)
def test_equals_the_scalar_oracle(
    n_reference, n_distorted, duplicates, span, k, max_points, seed
):
    truth = _cloud(n_reference, seed, span, duplicates)
    shown = _cloud(n_distorted, seed + 1, span, duplicates)
    other = _cloud(n_distorted, seed + 2, span, 0)
    options = dict(k=k, max_points=max_points, seed=seed % 7)
    pairs = [(truth, shown), (truth, other), (shown, truth), (truth, truth)]
    expected = [reference.pointssim(a, b, **options) for a, b in pairs]

    for (a, b), oracle in zip(pairs, expected):
        _assert_identical(pointssim(a, b, **options), oracle)
    # One batch: the shared clouds are featurized once, the tail fused.
    for got, oracle in zip(pointssim_batch(pairs, **options), expected):
        _assert_identical(got, oracle)


def test_rows_a_sampled_key_would_miss_still_count():
    """Two truths 5,000 points long that differ only in rows 1 and 2,
    scored back to back the way the quality lane scores (one pair per
    call, a fresh shown cloud each time).  A key built from every 19th
    row and the coordinate sum (unchanged: the moves cancel, and 1/64 m
    steps add exactly) could not tell them apart; the scores must."""
    rng = np.random.default_rng(5)
    positions = rng.integers(-128, 129, size=(5000, 3)) / 64.0
    colors = rng.integers(0, 256, size=(5000, 3)).astype(np.uint8)
    moved = positions.copy()
    moved[1, 0] += 0.5
    moved[2, 0] -= 0.5
    assert moved.sum() == positions.sum()
    first, second = PointCloud(positions, colors), PointCloud(moved, colors)
    shown = positions + rng.normal(scale=0.005, size=positions.shape)

    scores = []
    for truth in (first, second):
        displayed = PointCloud(shown.copy(), colors.copy())
        score = pointssim_batch([(truth, displayed)])[0]
        _assert_identical(score, reference.pointssim(truth, displayed))
        scores.append(score)
    assert scores[0].geometry != scores[1].geometry


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_is_rejected(k):
    truth = _cloud(20, 0, 5, 0)
    shown = _cloud(20, 1, 5, 0)
    with pytest.raises(ValueError, match="k must be at least 1"):
        pointssim(truth, shown, k=k)
    with pytest.raises(ValueError, match="k must be at least 1"):
        pointssim_batch([(truth, shown)], k=k)
    with pytest.raises(ValueError, match="k must be at least 1"):
        pointssim_batch([], k=k)
