"""Tests for pose traces, Kalman/MLP prediction, and view culling."""

import numpy as np
import pytest

from repro.capture.rig import default_rig
from repro.capture.scene import make_scene
from repro.geometry.camera import unproject_views
from repro.geometry.frustum import Frustum, camera_planes, expand_planes
from repro.prediction.culling import cull_views, culling_accuracy
from repro.prediction.kalman import ConstantVelocityKalman, PoseKalmanPredictor
from repro.prediction.mlp import MLPPosePredictor
from repro.prediction import pose as pose_module
from repro.prediction.pose import Pose, PoseTrace, synthetic_user_trace, user_traces_for_video
from repro.prediction.predictor import FrustumPredictor, ViewingDevice


class TestPose:
    def test_vector_roundtrip(self):
        pose = Pose(np.array([1.0, 2.0, 3.0]), np.array([0.1, -0.2, 0.3]))
        back = Pose.from_vector(pose.as_vector())
        np.testing.assert_array_equal(back.position, pose.position)
        np.testing.assert_array_equal(back.orientation, pose.orientation)

    def test_looking_at_faces_target(self):
        pose = Pose.looking_at(np.array([0.0, 1.5, -2.0]), np.array([0.0, 1.0, 0.0]))
        forward = pose.rotation_matrix()[:, 2]
        direction = np.array([0.0, 1.0, 0.0]) - pose.position
        direction /= np.linalg.norm(direction)
        np.testing.assert_allclose(forward, direction, atol=1e-6)

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            Pose(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            Pose.from_vector(np.zeros(5))


class TestPoseTrace:
    def test_clamping(self):
        trace = synthetic_user_trace(10, seed=0)
        assert trace.pose_at_frame(-5) is trace.poses[0]
        assert trace.pose_at_frame(99) is trace.poses[-1]

    def test_pose_at_time(self):
        trace = synthetic_user_trace(30, seed=0)
        assert trace.pose_at_time(0.5) is trace.poses[15]

    def test_matrix_shape(self):
        trace = synthetic_user_trace(20, seed=1)
        assert trace.as_matrix().shape == (20, 6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PoseTrace([])


class TestSyntheticTraces:
    def test_deterministic(self):
        a = synthetic_user_trace(60, seed=4).as_matrix()
        b = synthetic_user_trace(60, seed=4).as_matrix()
        np.testing.assert_array_equal(a, b)

    def test_motion_is_smooth(self, monkeypatch):
        monkeypatch.setattr(pose_module, "JITTER_M", 0.0)
        trace = synthetic_user_trace(300, seed=2)
        positions = trace.as_matrix()[:, :3]
        speed = np.linalg.norm(np.diff(positions, axis=0), axis=1) * 30.0
        # Humans walk, not teleport: under ~4 m/s always.
        assert speed.max() < 4.0

    def test_has_dwell_and_move_phases(self, monkeypatch):
        monkeypatch.setattr(pose_module, "JITTER_M", 0.0)
        trace = synthetic_user_trace(300, seed=3)
        positions = trace.as_matrix()[:, :3]
        speed = np.linalg.norm(np.diff(positions, axis=0), axis=1) * 30.0
        assert (speed < 1e-6).any()  # dwelling
        assert (speed > 0.3).any()   # moving

    def test_user_traces_for_video(self):
        traces = user_traces_for_video("band2", 30)
        assert len(traces) == 3
        again = user_traces_for_video("band2", 30)
        np.testing.assert_array_equal(traces[0].as_matrix(), again[0].as_matrix())
        other = user_traces_for_video("dance5", 30)
        assert not np.array_equal(traces[0].as_matrix(), other[0].as_matrix())


class TestKalman:
    def test_tracks_constant_velocity_exactly(self):
        kalman = ConstantVelocityKalman()
        dt = 1 / 30
        for frame in range(60):
            kalman.update(np.array([0.5 * frame * dt]), dt if frame else 0.0)
        predicted = kalman.predict(0.2)[0]
        expected = 0.5 * (59 * dt) + 0.5 * 0.2
        assert predicted == pytest.approx(expected, abs=0.01)

    def test_velocity_estimate(self):
        kalman = ConstantVelocityKalman()
        dt = 1 / 30
        for frame in range(90):
            kalman.update(np.array([2.0 * frame * dt]), dt if frame else 0.0)
        assert kalman.velocity()[0] == pytest.approx(2.0, abs=0.05)

    def test_predict_before_update_raises(self):
        with pytest.raises(RuntimeError):
            ConstantVelocityKalman().predict(0.1)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ConstantVelocityKalman().update(np.zeros(0), 0.0)
        kalman = ConstantVelocityKalman()
        kalman.update(np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            kalman.update(np.zeros(3), 0.1)

    def test_pose_predictor_on_real_trace(self):
        """Kalman prediction error on a synthetic user trace stays small.

        The paper reports 0.04 m position error at the conferencing
        horizon (Fig. 16); at our ~100 ms horizon errors should be
        centimeter-scale.
        """
        trace = synthetic_user_trace(300, seed=5)
        predictor = PoseKalmanPredictor()
        horizon_frames = 3
        errors = []
        for frame in range(len(trace) - horizon_frames):
            predictor.observe(trace.pose_at_frame(frame), frame / 30.0)
            if frame > 10:
                predicted = predictor.predict(horizon_frames / 30.0)
                actual = trace.pose_at_frame(frame + horizon_frames)
                errors.append(np.linalg.norm(predicted.position - actual.position))
        assert float(np.mean(errors)) < 0.10


class TestMLP:
    def test_train_reduces_error(self):
        traces = [synthetic_user_trace(200, seed=s) for s in range(2)]
        mlp = MLPPosePredictor(hidden_units=32, window=5, horizon_frames=3)
        before = mlp._dataset(traces)  # ensure dataset builds
        assert before[0].shape[1] == 30
        loss = mlp.fit(traces, epochs=60)
        assert np.isfinite(loss)
        position_error, rotation_error = mlp.evaluate(traces)
        assert position_error < 0.5
        assert rotation_error < 60.0

    def test_bigger_network_fits_better(self):
        """Fig. 16's capacity story: 3 hidden units cannot fit the
        trajectory manifold; 64 can."""
        traces = [synthetic_user_trace(200, seed=s) for s in range(2)]
        small = MLPPosePredictor(hidden_units=3, seed=1)
        large = MLPPosePredictor(hidden_units=64, seed=1)
        small.fit(traces, epochs=150)
        large.fit(traces, epochs=150)
        small_err = small.evaluate(traces)[0]
        large_err = large.evaluate(traces)[0]
        assert large_err < small_err

    def test_predict_requires_training(self):
        mlp = MLPPosePredictor()
        with pytest.raises(RuntimeError):
            mlp.predict(np.zeros((5, 6)))

    def test_predict_shape_validation(self):
        traces = [synthetic_user_trace(150, seed=0)]
        mlp = MLPPosePredictor(window=5)
        mlp.fit(traces, epochs=2)
        with pytest.raises(ValueError):
            mlp.predict(np.zeros((4, 6)))
        assert mlp.predict(np.zeros((5, 6))).shape == (6,)

    def test_too_short_traces_rejected(self):
        with pytest.raises(ValueError):
            MLPPosePredictor(window=50).fit([synthetic_user_trace(10, seed=0)])


class TestFrustumPredictor:
    def test_guard_band_expands(self):
        device = ViewingDevice()
        predictor = FrustumPredictor(device, guard_band_m=0.5)
        pose = Pose(np.array([0.0, 1.5, -2.0]), np.zeros(3))
        predictor.observe(pose, 0.0)
        expanded = predictor.predict_frustum(0.0)
        tight = device.frustum_for(predictor.predict_pose(0.0))
        rng = np.random.default_rng(0)
        points = rng.uniform(-3, 3, size=(500, 3)) + np.array([0, 1.5, 0])
        tight_in = tight.contains(points)
        wide_in = expanded.contains(points)
        assert np.all(wide_in[tight_in])
        assert wide_in.sum() > tight_in.sum()

    def test_negative_guard_band_rejected(self):
        with pytest.raises(ValueError):
            FrustumPredictor(guard_band_m=-0.1)

    def test_ready_flag(self):
        predictor = FrustumPredictor()
        assert not predictor.ready
        predictor.observe(Pose(np.zeros(3), np.zeros(3)), 0.0)
        assert predictor.ready


def _frustum(position, vertical_fov_deg, aspect, near_m, far_m):
    """A viewer frustum looking down +Z with the given optics."""
    return Frustum.of_unit_rows(
        camera_planes(position, np.eye(3), vertical_fov_deg, aspect, near_m, far_m)
    )


class TestCulling:
    @pytest.fixture
    def setup(self):
        rig = default_rig(num_cameras=4, width=48, height=36)
        scene = make_scene("t", num_people=2, num_props=1, sample_budget=15000, seed=0)
        frame = rig.capture(scene, 0)
        return rig, frame

    def test_full_scene_frustum_keeps_most(self, setup):
        rig, frame = setup
        wide = _frustum(np.array([0.0, 1.5, -4.0]), 100.0, 1.8, 0.05, 20.0)
        culled = cull_views(frame, rig.cameras, wide)
        assert culled.total_points() > 0.5 * frame.total_points()

    def test_narrow_frustum_cuts_points(self, setup):
        rig, frame = setup
        narrow = _frustum(np.array([0.0, 1.0, -2.0]), 40.0, 1.0, 0.1, 4.0)
        culled = cull_views(frame, rig.cameras, narrow)
        assert 0 < culled.total_points() < 0.5 * frame.total_points()

    def test_culled_matches_world_frame_test(self, setup):
        """Camera-local culling must equal culling the world point cloud."""
        rig, frame = setup
        frustum = _frustum(np.array([1.0, 1.5, -2.0]), 50.0, 1.5, 0.1, 6.0)
        culled = cull_views(frame, rig.cameras, frustum)
        for view, culled_view, camera in zip(frame.views, culled.views, rig.cameras):
            cloud = unproject_views([camera], [view.depth_mm])
            expected_kept = int(frustum.contains(cloud.positions).sum())
            assert culled_view.num_valid_pixels() == expected_kept

    def test_views_cameras_mismatch(self, setup):
        rig, frame = setup
        frustum = Frustum.from_camera(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError):
            cull_views(frame, rig.cameras[:2], frustum)

    def test_culling_accuracy_perfect_prediction(self, setup):
        rig, frame = setup
        frustum = _frustum(np.array([0.0, 1.5, -2.5]), 60.0, 1.5, 0.1, 8.0)
        accuracy, kept = culling_accuracy(frame, rig.cameras, frustum, frustum)
        assert accuracy == pytest.approx(1.0)
        assert 0 < kept <= 1.0

    def test_guard_band_raises_accuracy(self, setup):
        """Fig. 15's monotone trend: larger guard band -> higher accuracy."""
        rig, frame = setup
        actual = _frustum(np.array([0.0, 1.5, -2.5]), 60.0, 1.5, 0.1, 8.0)
        # A deliberately offset prediction.
        predicted = _frustum(np.array([0.25, 1.5, -2.5]), 60.0, 1.5, 0.1, 8.0)
        accuracies = []
        kepts = []
        for guard in (0.0, 0.2, 0.5):
            accuracy, kept = culling_accuracy(
                frame, rig.cameras,
                Frustum.of_unit_rows(expand_planes(predicted.array, guard)), actual
            )
            accuracies.append(accuracy)
            kepts.append(kept)
        assert accuracies == sorted(accuracies)
        assert kepts == sorted(kepts)
        assert accuracies[-1] > accuracies[0]
