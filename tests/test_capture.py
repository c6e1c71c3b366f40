"""Tests for the synthetic capture substrate (scenes, renderer, rig, dataset)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.capture import renderer
from repro.capture.dataset import PANOPTIC_VIDEOS, load_video, video_names
from repro.capture.renderer import ProjectionCache, fill_holes_batch, render_frame
from repro.capture.rgbd import MultiViewFrame, RGBDFrame
from repro.capture.rig import default_rig
from repro.capture.scene import Box, Ellipsoid, Person, RoomShell, SampleBatch, Scene, make_scene
from repro.geometry.camera import CameraExtrinsics, CameraIntrinsics, RGBDCamera, unproject_views
from tests.reference.fill_holes import fill_holes_batch_dense


class TestRGBDFrame:
    def make_frame(self):
        color = np.zeros((8, 10, 3), dtype=np.uint8)
        depth = np.zeros((8, 10), dtype=np.uint16)
        depth[2:5, 3:7] = 1200
        color[2:5, 3:7] = 90
        return RGBDFrame(color, depth)

    def test_valid_mask(self):
        frame = self.make_frame()
        assert frame.num_valid_pixels() == 3 * 4
        assert frame.valid_mask.sum() == 12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RGBDFrame(np.zeros((8, 10, 3), dtype=np.uint8), np.zeros((8, 9), dtype=np.uint16))

    def test_culled_zeroes_outside_mask(self):
        frame = self.make_frame()
        keep = np.zeros((8, 10), dtype=bool)
        keep[2, 3] = True
        culled = frame.culled(keep)
        assert culled.num_valid_pixels() == 1
        assert culled.depth_mm[2, 3] == 1200
        assert culled.color[3, 4].sum() == 0

    def test_culled_bad_mask_shape(self):
        with pytest.raises(ValueError):
            self.make_frame().culled(np.zeros((4, 4), dtype=bool))

    def test_multiview_consistency(self):
        frames = [self.make_frame() for _ in range(3)]
        multi = MultiViewFrame(frames)
        assert multi.num_cameras == 3
        assert multi.total_points() == 36
        assert multi.raw_size_bytes() == 36 * 15

    def test_multiview_rejects_mixed_resolutions(self):
        a = self.make_frame()
        b = RGBDFrame(np.zeros((4, 4, 3), dtype=np.uint8), np.zeros((4, 4), dtype=np.uint16))
        with pytest.raises(ValueError):
            MultiViewFrame([a, b])

    def test_multiview_rejects_empty(self):
        with pytest.raises(ValueError):
            MultiViewFrame([])


class TestPrimitives:
    def test_ellipsoid_samples_on_surface(self):
        ell = Ellipsoid(np.zeros(3), np.array([1.0, 2.0, 0.5]), np.array([100.0, 0, 0]))
        points, colors = ell.sample(0.0, 500, np.random.default_rng(0))
        # Implicit surface equation: sum((p/r)^2) == 1.
        values = ((points / ell.radii) ** 2).sum(axis=1)
        np.testing.assert_allclose(values, 1.0, atol=1e-9)
        assert colors.shape == (500, 3)

    def test_ellipsoid_motion(self):
        ell = Ellipsoid(
            np.zeros(3), np.ones(3), np.zeros(3),
            motion_amplitude=np.array([1.0, 0, 0]), motion_frequency_hz=1.0,
        )
        np.testing.assert_allclose(ell.center_at(0.25), [1.0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(ell.center_at(0.0), [0, 0, 0], atol=1e-12)

    def test_box_samples_on_faces(self):
        box = Box(np.zeros(3), np.array([1.0, 0.5, 2.0]), np.array([0.0, 100.0, 0]))
        points, _ = box.sample(0.0, 400, np.random.default_rng(1))
        on_face = (
            np.isclose(np.abs(points[:, 0]), 1.0)
            | np.isclose(np.abs(points[:, 1]), 0.5)
            | np.isclose(np.abs(points[:, 2]), 2.0)
        )
        assert on_face.all()
        assert np.all(np.abs(points) <= np.array([1.0, 0.5, 2.0]) + 1e-9)

    def test_room_shell_floor_and_walls(self):
        room = RoomShell(half_width=2.0, half_depth=2.0, wall_height=2.5)
        points, _ = room.sample(0.0, 1000, np.random.default_rng(2))
        on_floor = np.isclose(points[:, 1], 0.0)
        on_wall = (
            np.isclose(np.abs(points[:, 0]), 2.0) | np.isclose(np.abs(points[:, 2]), 2.0)
        )
        assert (on_floor | on_wall).all()
        assert on_floor.any() and on_wall.any()

    def test_person_moves_over_time(self):
        person = Person(np.zeros(3), motion_amplitude_m=0.3, motion_frequency_hz=1.0)
        rng = np.random.default_rng(3)
        p0, _ = person.sample(0.0, 300, np.random.default_rng(3))
        p1, _ = person.sample(0.25, 300, np.random.default_rng(3))
        # Same RNG stream, different time: displacement comes from motion.
        assert np.linalg.norm(p1.mean(axis=0) - p0.mean(axis=0)) > 0.01

    def test_person_area_positive(self):
        assert Person(np.zeros(3), motion_amplitude_m=0.15, motion_frequency_hz=0.5).area() > 0


class TestScene:
    def test_sample_budget_respected(self):
        scene = make_scene("t", num_people=2, num_props=2, sample_budget=5000, seed=0)
        batches = scene.sample_batches(0.0)
        assert sum(len(batch.points) for batch in batches) == 5000
        assert all(batch.colors.dtype == np.uint8 for batch in batches)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_non_positive_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="sample_budget"):
            make_scene("t", 1, 1, sample_budget=budget)
        with pytest.raises(ValueError, match="sample_budget"):
            Scene([Box(np.zeros(3), np.ones(3), np.ones(3))], sample_budget=budget)

    def test_deterministic_replay(self):
        scene_a = make_scene("t", 1, 1, sample_budget=2000, seed=7)
        scene_b = make_scene("t", 1, 1, sample_budget=2000, seed=7)
        for a, b in zip(scene_a.sample_batches(0.5), scene_b.sample_batches(0.5), strict=True):
            np.testing.assert_array_equal(a.points, b.points)
            np.testing.assert_array_equal(a.colors, b.colors)

    def test_object_count(self):
        scene = make_scene("t", num_people=3, num_props=4, seed=1)
        # The room shell, then one primitive per person and per prop.
        assert len(scene.primitives) == 1 + 7


def render_rgbd(camera, points, colors, hole_fill_iterations=2) -> RGBDFrame:
    """One camera's render of one dynamic batch, filled or not."""
    batches = [SampleBatch(points, np.asarray(colors, dtype=np.uint8), static=False)]
    if hole_fill_iterations == 0:
        depth, color = ProjectionCache(camera).render_arrays(batches)
        return RGBDFrame(color, depth)
    return render_frame([ProjectionCache(camera)], batches, 0, 0.0).views[0]


class TestRenderer:
    @pytest.fixture
    def camera(self):
        intr = CameraIntrinsics.from_fov(80, 60)
        return RGBDCamera(intr, CameraExtrinsics(np.eye(4)))

    def test_nearest_point_wins(self, camera):
        # Two points along the optical axis; the nearer one must win.
        points = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 1.5]])
        colors = np.array([[255, 0, 0], [0, 255, 0]], dtype=np.uint8)
        frame = render_rgbd(camera, points, colors)
        cy, cx = 30, 40
        assert frame.depth_mm[cy, cx] == 1500
        np.testing.assert_array_equal(frame.color[cy, cx], [0, 255, 0])

    def test_out_of_range_points_dropped(self, camera):
        points = np.array([[0.0, 0.0, 0.1], [0.0, 0.0, 20.0], [0.0, 0.0, -2.0]])
        colors = np.zeros((3, 3), dtype=np.uint8)
        frame = render_rgbd(camera, points, colors)
        assert frame.num_valid_pixels() == 0

    def test_rendered_depth_roundtrips_through_unprojection(self, camera):
        rng = np.random.default_rng(5)
        points = rng.uniform(-0.5, 0.5, size=(500, 3)) + np.array([0, 0, 2.0])
        colors = rng.integers(0, 255, size=(500, 3), dtype=np.uint8)
        frame = render_rgbd(camera, points, colors, hole_fill_iterations=0)
        cloud = unproject_views([camera], [frame.depth_mm], [frame.color])
        assert not cloud.is_empty
        # Reconstructed points lie near some original point (pixel+mm error).
        from scipy.spatial import cKDTree

        distances, _ = cKDTree(points).query(cloud.positions)
        assert np.percentile(distances, 95) < 0.08

    def test_hole_filling_densifies_surfaces(self, camera):
        """Sparse splats of a flat wall become a dense depth map."""
        rng = np.random.default_rng(6)
        # A wall at z = 2 m covering the whole view, sparsely sampled.
        xs = rng.uniform(-1.5, 1.5, size=4000)
        ys = rng.uniform(-1.2, 1.2, size=4000)
        points = np.stack([xs, ys, np.full(4000, 2.0)], axis=1)
        colors = np.full((4000, 3), 120, dtype=np.uint8)
        sparse = render_rgbd(camera, points, colors, hole_fill_iterations=0)
        dense = render_rgbd(camera, points, colors, hole_fill_iterations=2)
        assert dense.num_valid_pixels() > sparse.num_valid_pixels()
        # Filled pixels carry plausible depth (near 2000 mm).
        filled = dense.valid_mask & ~sparse.valid_mask
        assert np.abs(dense.depth_mm[filled].astype(int) - 2000).max() < 50


HOLE_PATTERNS = ("as drawn", "all holes", "no holes", "border holes", "one image valid")


def _apply_pattern(depths: np.ndarray, pattern: str) -> np.ndarray:
    depths = depths.copy()
    if pattern == "all holes":
        depths[:] = 0
    elif pattern == "no holes":
        depths[~(depths > 0)] = 7
    elif pattern == "border holes":
        depths[~(depths > 0)] = 7
        depths[:, [0, -1], :] = 0
        depths[:, :, [0, -1]] = 0
    elif pattern == "one image valid":
        depths[0][~(depths[0] > 0)] = 7
    return depths


@st.composite
def _hole_stacks(draw):
    """A ``(N, H, W)`` depth stack with holes and its ``(N, H, W, 3)`` colors."""
    shape = draw(st.tuples(st.integers(1, 3), st.integers(1, 7), st.integers(1, 7)))
    if draw(st.booleans()):
        # What the renderer feeds the fill: already quantized images.
        depth_dtype, color_dtype = np.uint16, np.uint8
        depth_values = st.one_of(st.just(0), st.integers(0, 65535))
        color_values = st.integers(0, 255)
    else:
        # The rounding path: fractional, negative and out-of-range values.
        depth_dtype = color_dtype = draw(st.sampled_from([np.float64, np.float32]))
        width = np.dtype(depth_dtype).itemsize * 8
        depth_values = st.one_of(st.just(0.0), st.floats(-40.0, 70000.0, width=width))
        color_values = st.floats(-20.0, 300.0, width=width)
    depths = draw(hnp.arrays(depth_dtype, shape, elements=depth_values))
    colors = draw(hnp.arrays(color_dtype, (*shape, 3), elements=color_values))
    return _apply_pattern(depths, draw(st.sampled_from(HOLE_PATTERNS))), colors


def _fill(depths, colors, passes, min_neighbors):
    """``fill_holes_batch`` at another pass count and neighbor threshold."""
    with mock.patch.multiple(
        renderer, FILL_PASSES=passes, FILL_MIN_NEIGHBORS=min_neighbors
    ):
        return fill_holes_batch(depths, colors)


def _assert_same_fill(got, want):
    for got_array, want_array in zip(got, want, strict=True):
        assert got_array.dtype == want_array.dtype
        np.testing.assert_array_equal(got_array, want_array)


class TestHoleFillAgainstReference:
    """The hole-only fill vs the dense oracle in ``tests/reference``."""

    @given(_hole_stacks(), st.integers(0, 3), st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_batch_fill_matches_dense_reference(self, stack, iterations, min_neighbors):
        depths, colors = stack
        _assert_same_fill(
            _fill(depths, colors, iterations, min_neighbors),
            fill_holes_batch_dense(depths, colors, iterations, min_neighbors),
        )

    @pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 9), (2, 9, 1), (3, 6, 8)])
    @pytest.mark.parametrize("pattern", HOLE_PATTERNS)
    def test_named_shapes_and_patterns(self, shape, pattern):
        rng = np.random.default_rng(3)
        depths = rng.integers(1, 4000, size=shape).astype(np.uint16)
        depths[rng.uniform(size=shape) < 0.4] = 0
        depths = _apply_pattern(depths, pattern)
        colors = rng.integers(0, 256, size=(*shape, 3)).astype(np.uint8)
        for min_neighbors in (1, 3, 8):
            _assert_same_fill(
                _fill(depths, colors, 3, min_neighbors),
                fill_holes_batch_dense(depths, colors, 3, min_neighbors),
            )

    def test_images_do_not_bleed_into_each_other(self):
        # Image 0 is a dense bright surface, image 1 is empty: were the
        # padded images to share a border, image 1's rim would fill.
        depths = np.zeros((2, 4, 5), dtype=np.uint16)
        depths[0] = 3000
        colors = np.zeros((2, 4, 5, 3), dtype=np.uint8)
        colors[0] = 200
        out_depths, out_colors = _fill(depths, colors, 3, 1)
        np.testing.assert_array_equal(out_depths, depths)
        np.testing.assert_array_equal(out_colors, colors)

    def test_inputs_are_left_untouched_and_outputs_are_new(self):
        depths = np.array([[[0, 900, 900], [900, 900, 900]]], dtype=np.uint16)
        colors = np.full((1, 2, 3, 3), 50, dtype=np.uint8)
        before = depths.copy()
        out_depths, out_colors = fill_holes_batch(depths, colors)
        np.testing.assert_array_equal(depths, before)
        assert out_depths[0, 0, 0] == 900
        assert not np.shares_memory(out_depths, depths)
        assert not np.shares_memory(out_colors, colors)

    def test_single_image_is_a_stack_of_one(self):
        rng = np.random.default_rng(4)
        depth = rng.integers(1, 4000, size=(12, 10)).astype(np.uint16)
        depth[rng.uniform(size=depth.shape) < 0.3] = 0
        color = rng.integers(0, 256, size=(12, 10, 3)).astype(np.uint8)
        want_depth, want_color = fill_holes_batch_dense(depth[None], color[None])
        depths, colors = fill_holes_batch(depth[None], color[None])
        _assert_same_fill((depths[0], colors[0]), (want_depth[0], want_color[0]))


class TestRigAndDataset:
    def test_default_rig_shape(self):
        rig = default_rig(num_cameras=4, width=40, height=30)
        assert rig.num_cameras == 4
        assert rig.frame_interval_s == pytest.approx(1 / 30)

    def test_capture_produces_valid_views(self):
        rig = default_rig(num_cameras=3, width=48, height=36)
        scene = make_scene("t", 1, 1, sample_budget=8000, seed=2)
        multi = rig.capture(scene, sequence=5)
        assert multi.num_cameras == 3
        assert multi.sequence == 5
        assert multi.total_points() > 500  # scene is visible

    def test_dataset_has_five_videos(self):
        assert video_names() == ["band2", "dance5", "office1", "pizza1", "toddler4"]

    def test_dataset_object_counts_match_table3(self):
        expected = {"band2": 9, "dance5": 1, "office1": 7, "pizza1": 14, "toddler4": 3}
        for name, count in expected.items():
            spec = PANOPTIC_VIDEOS[name]
            assert spec.paper_objects == count
            assert spec.num_people + spec.num_props == count

    def test_load_video(self):
        spec, scene = load_video("dance5", sample_budget=1000)
        assert spec.name == "dance5"
        assert len(scene.primitives) == 1 + 1

    def test_load_unknown_video(self):
        with pytest.raises(KeyError):
            load_video("nope")
