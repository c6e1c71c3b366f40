"""Tests for the pinhole RGB-D camera model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.camera import (
    CameraExtrinsics,
    CameraIntrinsics,
    RGBDCamera,
    ring_of_cameras,
    unproject_views,
)
from tests.reference import unproject as reference


def unproject(camera, depth, color=None):
    """One camera's cloud through the rig-wide fusion."""
    return unproject_views([camera], [depth], None if color is None else [color])


@pytest.fixture
def intrinsics():
    return CameraIntrinsics.from_fov(80, 60, horizontal_fov_deg=75.0)


@pytest.fixture
def camera(intrinsics):
    return RGBDCamera(intrinsics, CameraExtrinsics(np.eye(4)))


class TestIntrinsics:
    def test_from_fov_focal_length(self):
        intr = CameraIntrinsics.from_fov(100, 80, horizontal_fov_deg=90.0)
        assert intr.fx == pytest.approx(50.0)
        assert intr.fy == pytest.approx(50.0)
        assert intr.cx == 50.0 and intr.cy == 40.0

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(0, 10, 1.0, 1.0, 0.0, 0.0)

    def test_invalid_focal(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(10, 10, -1.0, 1.0, 0.0, 0.0)

    def test_pixel_rays_center(self, intrinsics):
        xf, yf = intrinsics.pixel_rays()
        cy, cx = int(intrinsics.cy), int(intrinsics.cx)
        # Principal-point pixel should map almost straight ahead.
        assert abs(xf[cy, cx]) < 0.02
        assert abs(yf[cy, cx]) < 0.02


class TestProjectionRoundtrip:
    def test_unproject_then_project(self, camera):
        depth = np.zeros((60, 80), dtype=np.uint16)
        depth[20:40, 30:50] = 2000  # 2 meters
        cloud = unproject(camera, depth)
        assert len(cloud) == 20 * 20
        u, v, z = camera.project(cloud.positions)
        assert np.all(camera.in_image(u, v))
        np.testing.assert_allclose(z, 2.0, atol=1e-9)

    def test_zero_depth_is_invalid(self, camera):
        depth = np.zeros((60, 80), dtype=np.uint16)
        assert unproject(camera, depth).is_empty

    def test_unproject_carries_colors(self, camera):
        depth = np.zeros((60, 80), dtype=np.uint16)
        depth[10, 10] = 1500
        color = np.zeros((60, 80, 3), dtype=np.uint8)
        color[10, 10] = [200, 100, 50]
        cloud = unproject(camera, depth, color)
        np.testing.assert_array_equal(cloud.colors[0], [200, 100, 50])

    def test_unproject_shape_mismatch(self, camera):
        with pytest.raises(ValueError):
            unproject(camera, np.zeros((10, 10), dtype=np.uint16))

    def test_local_points_grid(self, camera):
        depth = np.full((60, 80), 1000, dtype=np.uint16)
        points, valid = camera.local_points(depth)
        assert points.shape == (60, 80, 3)
        assert valid.all()
        np.testing.assert_allclose(points[..., 2], 1.0)

    def test_world_frame_unprojection(self, intrinsics):
        # Camera at (0, 0, -2) looking at origin: a point 2 m ahead on the
        # optical axis should land at the origin in world coordinates.
        cam = RGBDCamera.looking_at(np.array([0.0, 0.0, -2.0]), np.zeros(3), intrinsics)
        depth = np.zeros((60, 80), dtype=np.uint16)
        depth[int(intrinsics.cy), int(intrinsics.cx)] = 2000
        cloud = unproject(cam, depth)
        np.testing.assert_allclose(cloud.positions[0], [0.0, 0.0, 0.0], atol=0.05)

    def test_project_behind_camera_flagged(self, camera):
        u, v, z = camera.project(np.array([[0.0, 0.0, -1.0]]))
        assert z[0] < 0
        assert not camera.in_image(u, v)[0]


class TestCameraRange:
    def test_extrinsics_position(self):
        t = np.eye(4)
        t[:3, 3] = [1.0, 2.0, 3.0]
        ext = CameraExtrinsics(t)
        np.testing.assert_array_equal(ext.position, [1.0, 2.0, 3.0])

    def test_extrinsics_inverse(self):
        t = np.eye(4)
        t[:3, 3] = [1.0, 0.0, 0.0]
        ext = CameraExtrinsics(t)
        np.testing.assert_allclose(ext.world_to_camera @ t, np.eye(4), atol=1e-12)

    def test_extrinsics_inverse_is_computed_once(self, intrinsics):
        """A calibrated rig does not move: every read of a camera's
        inverse is the one read-only array built at construction."""
        camera = RGBDCamera.looking_at(
            np.array([0.0, 1.5, -2.0]), np.array([0.0, 1.0, 0.0]), intrinsics
        )
        first = camera.extrinsics.world_to_camera
        assert camera.extrinsics.world_to_camera is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 3] = 1.0

    def test_extrinsics_bad_shape(self):
        with pytest.raises(ValueError):
            CameraExtrinsics(np.eye(3))


class TestRing:
    def test_ring_count_and_ids(self, intrinsics):
        cameras = ring_of_cameras(10, radius_m=2.0, height_m=1.5, intrinsics=intrinsics)
        assert len(cameras) == 10
        assert [c.camera_id for c in cameras] == list(range(10))

    def test_ring_cameras_face_target(self, intrinsics):
        target = np.array([0.0, 1.0, 0.0])
        cameras = ring_of_cameras(6, 2.0, 1.0, intrinsics)
        for cam in cameras:
            u, v, z = cam.project(target[None, :])
            assert z[0] > 0
            assert cam.in_image(u, v)[0]

    def test_ring_radius(self, intrinsics):
        cameras = ring_of_cameras(4, 3.0, 1.0, intrinsics)
        for cam in cameras:
            xz = cam.extrinsics.position[[0, 2]]
            assert np.linalg.norm(xz) == pytest.approx(3.0)

    def test_ring_rejects_zero_cameras(self, intrinsics):
        with pytest.raises(ValueError):
            ring_of_cameras(0, 1.0, 1.0, intrinsics)


SIZES = [(8, 6), (16, 12), (9, 13)]


@st.composite
def _rig_views(draw, num_cameras=st.integers(1, 4), mixed=st.booleans(), zero_share=None):
    """Cameras aimed at the origin from random eyes, with depth and color
    images of their own size: ``(cameras, depths, colors)``."""
    count = draw(num_cameras)
    mixed = draw(mixed)
    sizes = [draw(st.sampled_from(SIZES)) for _ in range(count)] if mixed else [SIZES[1]] * count
    fov = draw(st.floats(40.0, 100.0))
    cameras, depths, colors = [], [], []
    for index, (width, height) in enumerate(sizes):
        angle = draw(st.floats(0.0, 2.0 * np.pi))
        radius = draw(st.floats(0.5, 4.0))
        eye = np.array([radius * np.cos(angle), draw(st.floats(-1.0, 2.0)), radius * np.sin(angle)])
        intrinsics = CameraIntrinsics.from_fov(width, height, horizontal_fov_deg=fov)
        cameras.append(RGBDCamera.looking_at(eye, np.zeros(3), intrinsics, camera_id=index))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        depth = rng.integers(1, 8000, size=(height, width)).astype(np.uint16)
        share = draw(st.sampled_from([0.0, 0.3, 1.0])) if zero_share is None else zero_share
        depth[rng.uniform(size=depth.shape) < share] = 0
        depths.append(depth)
        colors.append(rng.integers(0, 256, size=(height, width, 3)).astype(np.uint8))
    return cameras, depths, colors


def _assert_same_cloud(got, want):
    for array, expected in ((got.positions, want.positions), (got.colors, want.colors)):
        assert array.dtype == expected.dtype
        assert array.shape == expected.shape
        np.testing.assert_array_equal(array, expected)


class TestUnprojectViewsAgainstReference:
    """``unproject_views`` vs per-camera unprojection + merge, bit for bit."""

    @given(_rig_views(mixed=st.just(False)), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_shared_intrinsics_rig(self, views, with_color):
        cameras, depths, colors = views
        colors = colors if with_color else None
        _assert_same_cloud(
            unproject_views(cameras, depths, colors),
            reference.unproject_views(cameras, depths, colors),
        )

    @given(_rig_views(num_cameras=st.integers(2, 4), mixed=st.just(True)), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_mixed_intrinsics_rig(self, views, with_color):
        cameras, depths, colors = views
        colors = colors if with_color else None
        _assert_same_cloud(
            unproject_views(cameras, depths, colors),
            reference.unproject_views(cameras, depths, colors),
        )

    @given(_rig_views(zero_share=1.0))
    @settings(max_examples=15, deadline=None)
    def test_all_zero_depth(self, views):
        cameras, depths, colors = views
        cloud = unproject_views(cameras, depths, colors)
        assert cloud.is_empty
        _assert_same_cloud(cloud, reference.unproject_views(cameras, depths, colors))

    @given(_rig_views(num_cameras=st.just(1)), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_one_camera(self, views, with_color):
        cameras, depths, colors = views
        colors = colors if with_color else None
        _assert_same_cloud(
            unproject_views(cameras, depths, colors),
            reference.unproject_views(cameras, depths, colors),
        )

    def test_camera_order_is_kept(self, intrinsics):
        cameras = ring_of_cameras(3, 2.0, 1.0, intrinsics)
        depth = np.full((60, 80), 1500, dtype=np.uint16)
        fused = unproject_views(cameras, [depth] * 3)
        alone = [unproject(camera, depth) for camera in cameras]
        np.testing.assert_array_equal(
            fused.positions, np.concatenate([cloud.positions for cloud in alone])
        )

    @pytest.mark.parametrize(
        "depths, colors",
        [(2, None), (3, 2), (4, 3), (3, 4)],
        ids=["fewer depths", "fewer colors", "more depths", "more colors"],
    )
    def test_mismatched_lists_raise(self, intrinsics, depths, colors):
        cameras = ring_of_cameras(3, 2.0, 1.0, intrinsics)
        depth = np.full((60, 80), 1500, dtype=np.uint16)
        color = np.zeros((60, 80, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="per camera"):
            unproject_views(
                cameras, [depth] * depths, None if colors is None else [color] * colors
            )
