"""Tests for the six-plane viewing frustum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.frustum import (
    Frustum, camera_planes, expand_planes, planes_contain, transform_planes,
)
from repro.geometry.transforms import euler_to_rotation, make_transform, transform_points
from tests.reference.frustum import Plane

# Plane rows are normalised with vectorised norms: a degenerate plane
# must stay a ValueError, never a warning and a NaN mask.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def forward_frustum(vertical_fov_deg=60.0, aspect=1.0, near_m=0.1, far_m=10.0):
    """Frustum at origin looking down +Z with the given optics."""
    return Frustum.of_unit_rows(
        camera_planes(np.zeros(3), np.eye(3), vertical_fov_deg, aspect, near_m, far_m)
    )


def expanded(frustum, guard_band_m):
    return Frustum.of_unit_rows(expand_planes(frustum.array, guard_band_m))


class TestPlane:
    """The oracle's plane (``tests/reference/frustum.py``)."""

    def test_signed_distance_sign(self):
        plane = Plane(np.array([0.0, 0.0, 1.0]), 0.0)  # z = 0, normal +z
        d = plane.signed_distance(np.array([[0, 0, 2.0], [0, 0, -2.0]]))
        assert d[0] > 0 > d[1]

    def test_normal_is_normalized(self):
        plane = Plane(np.array([0.0, 0.0, 2.0]), 4.0)
        np.testing.assert_allclose(plane.normal, [0, 0, 1])
        assert plane.offset == pytest.approx(2.0)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Plane(np.zeros(3), 1.0)

    def test_translated_moves_along_normal(self):
        plane = Plane(np.array([0.0, 0.0, 1.0]), 0.0)
        moved = plane.translated(-0.5)  # outward by 0.5
        # Point at z=-0.3 was outside; now inside.
        assert plane.signed_distance(np.array([[0, 0, -0.3]]))[0] < 0
        assert moved.signed_distance(np.array([[0, 0, -0.3]]))[0] > 0

    def test_transformed_consistency(self):
        plane = Plane(np.array([0.0, 0.0, 1.0]), -1.0)  # z = 1
        t = make_transform(euler_to_rotation(0.2, 0.5, -0.1), [1.0, 2.0, 3.0])
        # signed_distance(p, plane) == signed_distance(T p, T plane)
        points = np.random.default_rng(3).normal(size=(20, 3))
        moved_points = transform_points(t, points)
        moved_plane = plane.transformed(t)
        np.testing.assert_allclose(
            moved_plane.signed_distance(moved_points),
            plane.signed_distance(points),
            atol=1e-10,
        )


class TestFrustumContains:
    def test_point_straight_ahead_inside(self):
        frustum = forward_frustum()
        assert frustum.contains(np.array([[0.0, 0.0, 5.0]]))[0]

    def test_point_behind_outside(self):
        assert not forward_frustum().contains(np.array([[0.0, 0.0, -1.0]]))[0]

    def test_point_nearer_than_near_plane_outside(self):
        assert not forward_frustum(near_m=0.5).contains(np.array([[0.0, 0.0, 0.3]]))[0]

    def test_point_past_far_plane_outside(self):
        assert not forward_frustum(far_m=5.0).contains(np.array([[0.0, 0.0, 6.0]]))[0]

    def test_fov_boundary(self):
        frustum = forward_frustum(vertical_fov_deg=90.0, aspect=1.0)
        # With 90-degree FoV, |y| < z is inside.
        inside = frustum.contains(np.array([[0.0, 1.9, 2.0], [0.0, 2.1, 2.0]]))
        assert inside[0] and not inside[1]

    def test_wide_aspect_admits_wider_x(self):
        narrow = forward_frustum(aspect=1.0)
        wide = forward_frustum(aspect=2.0)
        point = np.array([[1.5, 0.0, 2.0]])
        assert not narrow.contains(point)[0]
        assert wide.contains(point)[0]

    def test_contains_grid_shape(self):
        frustum = forward_frustum()
        grid = np.zeros((4, 5, 3))
        grid[..., 2] = 3.0
        mask = planes_contain(frustum.array, grid)
        assert mask.shape == (4, 5)
        assert mask.all()

    def test_six_planes_required(self):
        with pytest.raises(ValueError):
            Frustum(np.tile([0.0, 0.0, 1.0, 0.0], (5, 1)))

    def test_invalid_fov(self):
        with pytest.raises(ValueError):
            forward_frustum(vertical_fov_deg=0.0)

    def test_invalid_near_far(self):
        with pytest.raises(ValueError):
            forward_frustum(near_m=5.0, far_m=1.0)


class TestGuardBand:
    def test_expanded_superset(self):
        frustum = forward_frustum()
        grown_frustum = expanded(frustum, 0.2)
        rng = np.random.default_rng(1)
        points = rng.uniform(-5, 5, size=(500, 3))
        points[:, 2] = rng.uniform(-1, 11, size=500)
        base = frustum.contains(points)
        grown = grown_frustum.contains(points)
        assert np.all(grown[base])  # everything inside stays inside

    def test_expanded_strictly_larger(self):
        frustum = forward_frustum(vertical_fov_deg=60.0)
        # A point just outside the top plane comes inside after expansion.
        point = np.array([[0.0, 1.25, 2.0]])
        assert not frustum.contains(point)[0]
        assert expanded(frustum, 0.3).contains(point)[0]

    def test_zero_guard_band_identity(self):
        frustum = forward_frustum()
        points = np.random.default_rng(2).uniform(-4, 8, size=(200, 3))
        np.testing.assert_array_equal(
            frustum.contains(points), expanded(frustum, 0.0).contains(points)
        )

    def test_negative_guard_band_rejected(self):
        with pytest.raises(ValueError):
            expanded(forward_frustum(), -0.1)

    @given(guard=st.floats(0.0, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_guard_band(self, guard):
        frustum = forward_frustum()
        rng = np.random.default_rng(7)
        points = rng.uniform(-3, 3, size=(200, 3)) + np.array([0, 0, 4.0])
        small = expanded(frustum, guard).contains(points)
        large = expanded(frustum, guard + 0.5).contains(points)
        assert np.all(large[small])


class TestFrustumTransform:
    def test_transform_then_test_equals_test_in_world(self):
        """Culling in camera-local frame must match culling in world frame.

        This is the correctness property behind LiVo's per-camera culling
        (section 3.4): transform the frustum once instead of every point.
        """
        frustum = forward_frustum()
        t = make_transform(euler_to_rotation(0.3, -0.6, 0.2), [0.5, -1.0, 2.0])
        rng = np.random.default_rng(4)
        world_points = rng.uniform(-4, 8, size=(500, 3))
        local_points = transform_points(np.linalg.inv(t), world_points)
        # Frustum in world coordinates was frustum transformed by t.
        world_frustum = Frustum.of_unit_rows(transform_planes(frustum.array, t))
        np.testing.assert_array_equal(
            world_frustum.contains(world_points), frustum.contains(local_points)
        )
