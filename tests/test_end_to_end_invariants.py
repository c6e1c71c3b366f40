"""Cross-module invariants: properties the whole pipeline must preserve.

Each test exercises several subsystems at once and asserts a property
that would catch integration drift that per-module unit tests miss.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.capture.dataset import load_video
from repro.capture.rig import default_rig
from repro.core.config import RENDER_VOXEL_M, SessionConfig
from repro.core.receiver import LiVoReceiver
from repro.core.sender import LiVoSender
from repro.geometry.camera import unproject_views
from repro.prediction.pose import Pose
from repro.prediction.predictor import ViewingDevice


@pytest.fixture(scope="module")
def setup():
    config = SessionConfig(
        num_cameras=6, camera_width=48, camera_height=36,
        scene_sample_budget=15_000, gop_size=8,
    )
    rig = default_rig(num_cameras=6, width=48, height=36)
    _, scene = load_video("band2", sample_budget=15_000)
    return config, rig, scene


class TestGeometryPreservation:
    def test_reconstruction_close_to_capture_at_high_rate(self, setup):
        """capture -> tile -> encode -> decode -> untile -> unproject
        reproduces the captured geometry to centimeter accuracy when
        bandwidth is generous."""
        config, rig, scene = setup
        sender = LiVoSender(rig.cameras, config)
        receiver = LiVoReceiver(rig.cameras, config)
        frame = rig.capture(scene, 0)
        result = sender.process(frame, target_rate_bps=80e6, prediction_horizon_s=0.1)
        pair = receiver.decode_pair(result.color_frame, result.depth_frame)
        reconstructed = receiver.reconstruct(pair)

        captured = unproject_views(
            rig.cameras,
            [view.depth_mm for view in frame.views],
            [view.color for view in frame.views],
        )
        distances, _ = cKDTree(captured.positions).query(reconstructed.positions)
        assert np.percentile(distances, 95) < 0.05  # 5 cm at worst

    def test_point_count_conserved_without_culling(self, setup):
        """Every valid captured pixel survives the codec path (depth may
        quantize but pixels don't vanish at high rate)."""
        config, rig, scene = setup
        sender = LiVoSender(rig.cameras, config)
        receiver = LiVoReceiver(rig.cameras, config)
        frame = rig.capture(scene, 1)
        result = sender.process(frame, 80e6, 0.1)
        pair = receiver.decode_pair(result.color_frame, result.depth_frame)
        reconstructed = receiver.reconstruct(pair)
        captured_points = frame.total_points()
        # Within a few percent: codec noise can push borderline pixels
        # in or out of the valid range.
        assert abs(len(reconstructed) - captured_points) < 0.05 * captured_points

    def test_culled_pixels_stay_culled_through_codec(self, setup):
        """Zeroed (culled) regions must not resurrect as phantom points
        after lossy coding -- the invariant culling's bandwidth saving
        and the receiver's geometry both depend on."""
        config, rig, scene = setup
        sender = LiVoSender(rig.cameras, config)
        receiver = LiVoReceiver(rig.cameras, config)
        pose = Pose.looking_at(np.array([0.0, 1.4, -1.8]), np.array([0.0, 1.0, 0.0]))
        sender.observe_pose(pose, 0.0)
        frame = rig.capture(scene, 0)
        result = sender.process(frame, 10e6, 0.0)
        assert result.culled_points < result.total_points
        pair = receiver.decode_pair(result.color_frame, result.depth_frame)
        reconstructed = receiver.reconstruct(pair)
        # Reconstructed points track the culled count, not the full
        # count.  Lossy coding rings at cull boundaries (zero/nonzero
        # edges), so allow a boundary margin; the receiver's render-time
        # re-cull removes those points before display.
        assert len(reconstructed) < 1.3 * result.culled_points
        assert len(reconstructed) < 0.9 * result.total_points


class TestRenderViewInvariants:
    def test_rendered_points_inside_actual_frustum(self, setup):
        config, rig, scene = setup
        sender = LiVoSender(rig.cameras, config)
        receiver = LiVoReceiver(rig.cameras, config)
        frame = rig.capture(scene, 0)
        result = sender.process(frame, 40e6, 0.1)
        pair = receiver.decode_pair(result.color_frame, result.depth_frame)
        cloud = receiver.reconstruct(pair)
        device = ViewingDevice()
        pose = Pose.looking_at(np.array([1.5, 1.5, -1.5]), np.array([0.0, 1.0, 0.0]))
        frustum = device.frustum_for(pose)
        shown = receiver.render_view(cloud, frustum)
        if not shown.is_empty:
            assert frustum.contains(shown.positions).all()

    def test_voxelization_bounds_render_size(self, setup):
        """Appendix A.1: voxelization bounds the number of rendered
        points regardless of how dense the received cloud is."""
        config, rig, scene = setup
        sender = LiVoSender(rig.cameras, config)
        receiver = LiVoReceiver(rig.cameras, config)
        frame = rig.capture(scene, 0)
        result = sender.process(frame, 80e6, 0.1)
        pair = receiver.decode_pair(result.color_frame, result.depth_frame)
        cloud = receiver.reconstruct(pair)
        device = ViewingDevice()
        pose = Pose.looking_at(np.array([0.0, 1.5, -2.5]), np.array([0.0, 1.0, 0.0]))
        shown = receiver.render_view(cloud, device.frustum_for(pose))
        # One point per voxel: the scene fits in a bounded voxel count.
        lo, hi = cloud.bounds()
        voxels_upper_bound = np.prod(
            np.ceil((hi - lo) / RENDER_VOXEL_M) + 1
        )
        assert len(shown) <= voxels_upper_bound


class TestBitstreamTransportability:
    def test_encoded_frames_survive_serialization(self, setup):
        """What the sender emits is byte-serializable and the receiver
        decodes the parsed copy identically (the transport carries
        bytes, not Python objects)."""
        from repro.codec.frame import EncodedFrame

        config, rig, scene = setup
        sender = LiVoSender(rig.cameras, config)
        receiver = LiVoReceiver(rig.cameras, config)
        frame = rig.capture(scene, 0)
        result = sender.process(frame, 20e6, 0.1)
        color_copy = EncodedFrame.from_bytes(result.color_frame.to_bytes())
        depth_copy = EncodedFrame.from_bytes(result.depth_frame.to_bytes())
        pair = receiver.decode_pair(color_copy, depth_copy)
        assert pair.sequence == 0

    def test_wire_size_accounts_for_everything(self, setup):
        config, rig, scene = setup
        sender = LiVoSender(rig.cameras, config)
        frame = rig.capture(scene, 0)
        result = sender.process(frame, 20e6, 0.1)
        assert result.total_bytes == (
            len(result.color_frame.to_bytes()) + len(result.depth_frame.to_bytes())
        )
