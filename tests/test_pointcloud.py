"""Tests for the point cloud container and voxel downsampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.geometry.pointcloud import PointCloud
from repro.geometry.transforms import make_transform, rotation_y
from repro.geometry import voxel
from repro.geometry.voxel import voxel_downsample, voxel_occupancy


def random_cloud(n=100, seed=0):
    rng = np.random.default_rng(seed)
    return PointCloud(
        rng.uniform(-3, 3, size=(n, 3)),
        rng.integers(0, 256, size=(n, 3), dtype=np.uint8),
    )


class TestPointCloud:
    def test_empty_cloud(self):
        cloud = PointCloud()
        assert cloud.is_empty
        assert len(cloud) == 0
        assert cloud.raw_size_bytes() == 0

    def test_length_and_raw_size(self):
        cloud = random_cloud(50)
        assert cloud.num_points == 50
        assert cloud.raw_size_bytes() == 50 * 15  # 12 B position + 3 B color

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 3)), np.zeros((4, 3), dtype=np.uint8))

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 2)), np.zeros((3, 3), dtype=np.uint8))

    def test_select_mask(self):
        cloud = random_cloud(10)
        mask = cloud.positions[:, 0] > 0
        selected = cloud.select(mask)
        assert len(selected) == int(mask.sum())
        np.testing.assert_array_equal(selected.positions, cloud.positions[mask])

    def test_transformed_preserves_colors(self):
        cloud = random_cloud(30)
        t = make_transform(rotation_y(0.5), [1, 0, 0])
        moved = cloud.transformed(t)
        np.testing.assert_array_equal(moved.colors, cloud.colors)
        assert not np.allclose(moved.positions, cloud.positions)

    def test_transform_of_empty_cloud(self):
        empty = PointCloud()
        assert empty.transformed(np.eye(4)).is_empty

    def test_bounds(self):
        cloud = PointCloud(
            np.array([[0.0, -1.0, 2.0], [3.0, 1.0, -2.0]]),
            np.zeros((2, 3), dtype=np.uint8),
        )
        lo, hi = cloud.bounds()
        np.testing.assert_array_equal(lo, [0.0, -1.0, -2.0])
        np.testing.assert_array_equal(hi, [3.0, 1.0, 2.0])

    def test_copy_is_independent(self):
        cloud = random_cloud(5)
        copied = cloud.copy()
        copied.positions[0] = 99.0
        assert cloud.positions[0, 0] != 99.0


def _rowwise_downsample(cloud: PointCloud, voxel_size_m: float):
    """The reference grouping: ``np.unique(axis=0)`` and ``np.add.at``."""
    keys = np.floor(cloud.positions / voxel_size_m).astype(np.int64)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.reshape(-1)
    position_sums = np.zeros((len(counts), 3))
    np.add.at(position_sums, inverse, cloud.positions)
    color_sums = np.zeros((len(counts), 3))
    np.add.at(color_sums, inverse, cloud.colors.astype(np.float64))
    colors = np.clip(np.rint(color_sums / counts[:, None]), 0, 255).astype(np.uint8)
    return inverse, counts, position_sums / counts[:, None], colors


class TestVoxelGrouping:
    """The packed-key grouping equals the row-wise reference up to the
    edge of its per-axis budget, and keys past it take the fallback."""

    EDGE = (1 << 20) - 1

    def _cloud(self, bound: int) -> PointCloud:
        # Unit voxels, so a point's key is exactly its floored position:
        # every corner of the +-bound cube, repeated, plus random keys.
        rng = np.random.default_rng(4)
        corners = np.array(np.meshgrid(*[(-bound, 0, bound)] * 3)).reshape(3, -1).T
        keys = np.concatenate(
            [corners, corners[::-1], rng.integers(-bound, bound + 1, size=(300, 3))]
        )
        positions = keys + rng.uniform(0.1, 0.9, size=keys.shape)
        colors = rng.integers(0, 256, size=keys.shape, dtype=np.uint8)
        return PointCloud(positions, colors)

    @pytest.mark.parametrize(
        "bound,packed", [(EDGE, True), (EDGE + 1, False), (3 * EDGE, False)],
        ids=["budget-edge", "one-past", "far-past"],
    )
    def test_grouping_matches_rowwise_reference(self, bound, packed):
        cloud = self._cloud(bound)
        keys = voxel.voxel_keys(cloud.positions, 1.0)
        assert np.abs(keys).max() == bound
        assert (voxel._packed_keys(keys) is not None) is packed
        inverse, counts, centroids, colors = _rowwise_downsample(cloud, 1.0)
        grouped_inverse, grouped_counts = voxel._group_voxels(keys)
        np.testing.assert_array_equal(grouped_inverse, inverse)
        np.testing.assert_array_equal(grouped_counts, counts)
        down = voxel_downsample(cloud, 1.0)
        np.testing.assert_array_equal(down.positions, centroids)
        np.testing.assert_array_equal(down.colors, colors)


class TestVoxelDownsample:
    def test_reduces_point_count(self):
        cloud = random_cloud(2000)
        down = voxel_downsample(cloud, voxel_size_m=0.5)
        assert 0 < len(down) < len(cloud)

    def test_single_voxel_yields_centroid(self):
        positions = np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2]])
        colors = np.array([[0, 0, 0], [200, 100, 50]], dtype=np.uint8)
        down = voxel_downsample(PointCloud(positions, colors), voxel_size_m=1.0)
        assert len(down) == 1
        np.testing.assert_allclose(down.positions[0], [0.15, 0.15, 0.15])
        np.testing.assert_array_equal(down.colors[0], [100, 50, 25])

    def test_empty_cloud(self):
        assert voxel_downsample(PointCloud(), 0.1).is_empty

    def test_invalid_voxel_size(self):
        with pytest.raises(ValueError):
            voxel_downsample(random_cloud(5), 0.0)

    @given(
        positions=arrays(
            np.float64, (50, 3),
            elements=st.floats(-5, 5, allow_nan=False, allow_infinity=False),
        ),
        voxel=st.floats(0.05, 2.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_one_point_per_occupied_voxel(self, positions, voxel):
        cloud = PointCloud(positions, np.zeros((50, 3), dtype=np.uint8))
        down = voxel_downsample(cloud, voxel)
        assert len(down) == len(voxel_occupancy(cloud, voxel))

    @given(voxel=st.floats(0.05, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_downsample_is_idempotent_on_count(self, voxel):
        cloud = random_cloud(500)
        once = voxel_downsample(cloud, voxel)
        # Centroids may straddle voxel borders, so allow a tiny tolerance.
        twice = voxel_downsample(once, voxel)
        assert len(twice) <= len(once)

    def test_points_near_original_positions(self):
        cloud = random_cloud(1000)
        down = voxel_downsample(cloud, 0.25)
        # Every surviving point must be within half a voxel diagonal of
        # some original point (it's a centroid of in-voxel points).
        from scipy.spatial import cKDTree

        tree = cKDTree(cloud.positions)
        distances, _ = tree.query(down.positions)
        assert distances.max() <= 0.25 * np.sqrt(3)
