"""Tests for the core LiVo pipeline: split control, sender, receiver, config."""

import dataclasses
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capture.dataset import load_video
from repro.capture.rig import default_rig
from repro.codec import video as video_codec
from repro.codec.frame import FrameType
from repro.core.bandwidth_split import SplitController
from repro.core import config as paper
from repro.core.config import SessionConfig
from repro.core.receiver import LiVoReceiver
from repro.core.schemes import SCHEMES
from repro.core.sender import LiVoSender
from repro.core.stats import FrameRecord, SessionReport
from repro.geometry.camera import unproject_views
from repro.prediction.pose import Pose
from repro.tiling.marker import MARKER_HEIGHT
from tests.reference.receiver import eager_decode_pair


class TestSplitController:
    def test_holds_within_epsilon(self):
        controller = SplitController(initial=0.7, epsilon=0.5)
        assert controller.update(depth_rmse=2.0, color_rmse=1.8) == 0.7

    def test_increases_when_depth_worse(self):
        controller = SplitController(initial=0.7, step=0.005, epsilon=0.5)
        assert controller.update(5.0, 1.0) == pytest.approx(0.705)

    def test_decreases_when_color_worse(self):
        controller = SplitController(initial=0.7, step=0.005, epsilon=0.5)
        assert controller.update(1.0, 5.0) == pytest.approx(0.695)

    def test_clamped_at_bounds(self):
        controller = SplitController(initial=0.9, maximum=0.9)
        assert controller.update(10.0, 0.0) == 0.9
        controller = SplitController(initial=0.5, minimum=0.5)
        assert controller.update(0.0, 10.0) == 0.5

    def test_paper_constants_valid(self):
        # section 3.3: delta = 0.005, 0.5 <= s <= 0.9.
        controller = SplitController(initial=0.7, minimum=0.5, maximum=0.9, step=0.005)
        assert controller.split == 0.7

    def test_converges_toward_balance(self):
        """If depth error persistently dominates, s walks up to the cap."""
        controller = SplitController(initial=0.5, step=0.01, epsilon=0.1)
        for _ in range(100):
            controller.update(depth_rmse=3.0, color_rmse=1.0)
        assert controller.split == pytest.approx(0.9)

    def test_allocate_respects_split(self):
        controller = SplitController(initial=0.8)
        depth, color = controller.allocate(1000)
        assert depth == 800 and color == 200

    def test_allocate_invalid(self):
        with pytest.raises(ValueError):
            SplitController().allocate(0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SplitController(initial=0.95, maximum=0.9)
        with pytest.raises(ValueError):
            SplitController(step=0)
        with pytest.raises(ValueError):
            SplitController(epsilon=-1)

    def test_invalid_rmse(self):
        with pytest.raises(ValueError):
            SplitController().update(-1.0, 0.0)

    @given(
        depth=st.floats(0, 100, allow_nan=False),
        color=st.floats(0, 100, allow_nan=False),
    )
    @settings(max_examples=50)
    def test_split_always_in_bounds(self, depth, color):
        controller = SplitController()
        split = controller.update(depth, color)
        assert 0.5 <= split <= 0.9

    def test_repeated_updates_step_the_split(self):
        controller = SplitController()
        controller.update(5.0, 1.0)
        controller.update(5.0, 1.0)
        assert controller.split == pytest.approx(0.7 + 2 * 0.005)


class TestSessionConfig:
    def test_paper_defaults(self):
        config = SessionConfig()
        assert paper.SPLIT_MIN == 0.5 and paper.SPLIT_MAX == 0.9
        assert config.split_step == 0.005
        assert config.rmse_every_k == 3
        assert paper.GUARD_BAND_M == 0.20
        assert paper.JITTER_TARGET_S == 0.1
        assert config.num_cameras == 10
        assert config.fps == paper.FPS == 30.0
        assert config.frame_interval_s == paper.FRAME_INTERVAL_S == 1.0 / 30.0
        assert paper.HORIZON_S == 0.1

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SessionConfig(split_step=0.0)
        with pytest.raises(ValueError):
            SessionConfig(rmse_every_k=0)

    def test_rig_must_fit_the_frame_header(self):
        # 7 cameras of 10,000 x 1 tile into one 9 x 70,000 plane, wider
        # than the header's uint16: every frame's to_bytes would fail.
        with pytest.raises(ValueError, match="9x70000 plane"):
            SessionConfig(num_cameras=7, camera_width=10_000, camera_height=1)
        with pytest.raises(ValueError, match="at most 65535"):
            SessionConfig(num_cameras=4, camera_width=8, camera_height=40_000)
        edge = SessionConfig(num_cameras=1, camera_width=65_535, camera_height=1)
        assert edge.camera_width == 65_535

    def test_rig_must_be_wide_enough_for_the_marker(self):
        # One 32-px camera tiles to a 32-px plane; the 32-bit sequence
        # marker needs two pixels per bit, so the first tick would fail.
        with pytest.raises(ValueError, match="32 px wide; the marker needs 64"):
            SessionConfig(num_cameras=1, camera_width=32, camera_height=24)
        edge = SessionConfig(num_cameras=2, camera_width=32, camera_height=24)
        assert edge.num_cameras == 2

    def test_scheme_registry_rows(self):
        assert SCHEMES["LiVo"].bandwidth_adaptive == "Direct"
        assert SCHEMES["MeshReduce"].bandwidth_adaptive == "Indirect"
        assert SCHEMES["LiVo"].culls and not SCHEMES["LiVo-NoCull"].culls
        assert SCHEMES["LiVo"].adapts and SCHEMES["LiVo-NoCull"].adapts
        assert not SCHEMES["LiVo-NoAdapt"].adapts and not SCHEMES["LiVo-NoAdapt"].culls
        assert (paper.FIXED_COLOR_QP, paper.FIXED_DEPTH_QP) == (22, 14)


@pytest.fixture(scope="module")
def small_setup():
    """A small rig + scene + config shared across pipeline tests."""
    config = SessionConfig(
        num_cameras=4, camera_width=48, camera_height=36, scene_sample_budget=12000,
        gop_size=8,
    )
    rig = default_rig(num_cameras=4, width=48, height=36)
    _, scene = load_video("office1", sample_budget=12000)
    return config, rig, scene


def _wire(result):
    """A sender result's pair as it crosses the channel."""
    return result.color_frame.to_bytes(), result.depth_frame.to_bytes()


class TestSenderReceiver:
    def test_roundtrip_without_culling(self, small_setup):
        config, rig, scene = small_setup
        sender = LiVoSender(rig.cameras, config)
        receiver = LiVoReceiver(rig.cameras, config)
        frame = rig.capture(scene, 0)
        result = sender.process(frame, target_rate_bps=8e6, prediction_horizon_s=0.1)
        pair = receiver.decode_pair(result.color_frame, result.depth_frame)
        assert pair.sequence == 0
        cloud = receiver.reconstruct(pair)
        assert not cloud.is_empty

    def test_sequence_markers_roundtrip_many_frames(self, small_setup):
        config, rig, scene = small_setup
        sender = LiVoSender(rig.cameras, config)
        receiver = LiVoReceiver(rig.cameras, config)
        for sequence in range(5):
            frame = rig.capture(scene, sequence)
            result = sender.process(frame, 8e6, 0.1)
            pair = receiver.decode_pair(result.color_frame, result.depth_frame)
            assert pair.sequence == sequence

    def test_culling_reduces_bytes(self, small_setup):
        config, rig, scene = small_setup
        frame = rig.capture(scene, 0)
        # Sender with culling and an observed pose close to the scene.
        sender = LiVoSender(rig.cameras, config)
        pose = Pose.looking_at(np.array([0.0, 1.4, -1.8]), np.array([0.0, 1.0, 0.0]))
        sender.observe_pose(pose, 0.0)
        culled_result = sender.process(frame, 8e6, 0.0)
        assert culled_result.culled_points < culled_result.total_points

    def test_nocull_scheme_skips_culling(self, small_setup):
        config, rig, scene = small_setup
        from dataclasses import replace

        nocull = replace(config, scheme="LiVo-NoCull")
        sender = LiVoSender(rig.cameras, nocull)
        pose = Pose.looking_at(np.array([0.0, 1.4, -1.8]), np.array([0.0, 1.0, 0.0]))
        sender.observe_pose(pose, 0.0)
        frame = rig.capture(scene, 0)
        result = sender.process(frame, 8e6, 0.0)
        assert result.culled_points == result.total_points

    def test_noadapt_uses_fixed_qp(self, small_setup):
        config, rig, scene = small_setup
        from dataclasses import replace

        noadapt = replace(config, scheme="LiVo-NoAdapt")
        sender = LiVoSender(rig.cameras, noadapt)
        frame = rig.capture(scene, 0)
        result = sender.process(frame, 1e6, 0.0)
        assert result.color_frame.qp == 22
        assert result.depth_frame.qp == 14
        assert result.color_rmse is None  # no split estimation when fixed

    def test_split_updates_every_k_frames(self, small_setup):
        config, rig, scene = small_setup
        sender = LiVoSender(rig.cameras, config)
        measured = []
        for sequence in range(6):
            frame = rig.capture(scene, sequence)
            result = sender.process(frame, 8e6, 0.1)
            measured.append(result.color_rmse is not None)
        # k = 3: frames 0, 3 measured; 1, 2, 4, 5 not.
        assert measured == [True, False, False, True, False, False]

    def test_adaptation_tracks_rate(self, small_setup):
        config, rig, scene = small_setup
        sizes = {}
        for rate in (2e6, 16e6):
            sender = LiVoSender(rig.cameras, config)
            for sequence in range(6):
                frame = rig.capture(scene, sequence)
                result = sender.process(frame, rate, 0.1)
            sizes[rate] = result.total_bytes
        assert sizes[2e6] < sizes[16e6]

    def test_decoder_chain_enforcement(self, small_setup):
        config, rig, scene = small_setup
        sender = LiVoSender(rig.cameras, config)
        receiver = LiVoReceiver(rig.cameras, config)
        results = []
        for sequence in range(3):
            frame = rig.capture(scene, sequence)
            results.append(sender.process(frame, 8e6, 0.1))
        receiver.decode_pair(results[0].color_frame, results[0].depth_frame)
        # Skipping frame 1 breaks the P-frame chain for frame 2.
        assert not receiver.can_decode(results[2].color_frame, results[2].depth_frame)
        with pytest.raises(ValueError):
            receiver.decode_pair(results[2].color_frame, results[2].depth_frame)

    def test_intra_frame_resyncs_chain(self, small_setup):
        config, rig, scene = small_setup
        sender = LiVoSender(rig.cameras, config)
        receiver = LiVoReceiver(rig.cameras, config)
        first = sender.process(rig.capture(scene, 0), 8e6, 0.1)
        receiver.decode_pair(first.color_frame, first.depth_frame)
        sender.process(rig.capture(scene, 1), 8e6, 0.1)  # dropped
        forced = sender.process(rig.capture(scene, 2), 8e6, 0.1, force_intra=True)
        assert forced.color_frame.frame_type is FrameType.INTRA
        pair = receiver.decode_pair(forced.color_frame, forced.depth_frame)
        assert pair.sequence == 2

    def test_overwritten_entropy_header_is_absorbed(self, small_setup):
        """A hostile entropy header costs one pair, not the process."""
        config, rig, scene = small_setup
        sender = LiVoSender(rig.cameras, config)
        receiver = LiVoReceiver(rig.cameras, config)
        first = sender.process(rig.capture(scene, 0), 8e6, 0.1)
        payload = bytearray(first.color_frame.payload)
        # INTRA plane 0 carries no motion vectors: plane count (1 byte),
        # plane header (9), then the entropy header -- num_blocks (u32)
        # and block_size (u16) overwritten with their maxima.
        payload[10:16] = b"\xff" * 6
        poisoned = dataclasses.replace(first.color_frame, payload=bytes(payload))
        assert receiver.decode_pair_safe(poisoned.to_bytes(), first.depth_frame.to_bytes()) is None
        assert receiver.decode_failures == 1
        assert receiver.last_good_pair is None
        inter = sender.process(rig.capture(scene, 1), 8e6, 0.1)
        assert not receiver.can_decode(inter.color_frame, inter.depth_frame)  # streams reset
        forced = sender.process(rig.capture(scene, 2), 8e6, 0.1, force_intra=True)
        pair = receiver.decode_pair_safe(*_wire(forced))
        assert pair is not None and pair.sequence == 2
        assert receiver.decode_failures == 1

    def test_forged_motion_vectors_are_absorbed(self, small_setup):
        """One index for every block used to be broadcast into a picture."""
        config, rig, scene = small_setup
        sender = LiVoSender(rig.cameras, config)
        receiver = LiVoReceiver(rig.cameras, config)
        first = sender.process(rig.capture(scene, 0), 8e6, 0.1)
        assert receiver.decode_pair_safe(*_wire(first)) is not None
        inter = sender.process(rig.capture(scene, 1), 8e6, 0.1)
        assert inter.depth_frame.frame_type is FrameType.INTER
        # Plane count (1 byte), then plane 0's header: has-mv flag, mv
        # length, level length; the mv stream follows it.
        plane_header = struct.Struct("<BII")
        payload = inter.depth_frame.payload
        _, mv_len, level_len = plane_header.unpack_from(payload, 1)
        forged_mv = zlib.compress(b"\x00")
        forged = dataclasses.replace(
            inter.depth_frame,
            payload=payload[:1]
            + plane_header.pack(1, len(forged_mv), level_len)
            + forged_mv
            + payload[1 + plane_header.size + mv_len :],
        )
        assert receiver.decode_pair_safe(inter.color_frame.to_bytes(), forged.to_bytes()) is None
        assert receiver.decode_failures == 1
        forced = sender.process(rig.capture(scene, 2), 8e6, 0.1, force_intra=True)
        pair = receiver.decode_pair_safe(*_wire(forced))
        assert pair is not None and pair.sequence == 2
        assert receiver.decode_failures == 1

    def test_render_view_culls_and_voxelizes(self, small_setup):
        config, rig, scene = small_setup
        sender = LiVoSender(rig.cameras, config)
        receiver = LiVoReceiver(rig.cameras, config)
        result = sender.process(rig.capture(scene, 0), 8e6, 0.1)
        pair = receiver.decode_pair(result.color_frame, result.depth_frame)
        cloud = receiver.reconstruct(pair)
        from repro.geometry.frustum import Frustum

        frustum = Frustum.from_camera(
            np.array([0.0, 1.2, -2.0]), np.eye(3), vertical_fov_deg=50.0, aspect=1.5,
        )
        shown = receiver.render_view(cloud, frustum)
        assert len(shown) < len(cloud)
        assert frustum.contains(shown.positions).all()


def _stream(small_setup, count, rate=8e6):
    """``count`` consecutive sender results (an INTRA, then INTER frames)."""
    config, rig, scene = small_setup
    sender = LiVoSender(rig.cameras, config)
    return [sender.process(rig.capture(scene, index), rate, 0.1) for index in range(count)]


class TestLazyTiles:
    """``decode_pair`` decodes to planes and builds tiles only on read."""

    def test_tiles_equal_the_eager_decode(self, small_setup):
        config, rig, _ = small_setup
        receiver = LiVoReceiver(rig.cameras, config)
        oracle = LiVoReceiver(rig.cameras, config)
        results = _stream(small_setup, 10)
        assert {r.color_frame.frame_type for r in results} == {FrameType.INTRA, FrameType.INTER}
        for result in results:
            pair = receiver.decode_pair(result.color_frame, result.depth_frame)
            sequence, color_tiles, depth_tiles_mm = eager_decode_pair(
                oracle, result.color_frame, result.depth_frame
            )
            assert pair.sequence == sequence
            for lazy, eager in zip(
                pair.color_tiles + pair.depth_tiles_mm, color_tiles + depth_tiles_mm
            ):
                assert lazy.dtype == eager.dtype
                np.testing.assert_array_equal(lazy, eager)
            assert pair.color_tiles is pair.color_tiles  # built once

    def test_decoded_planes_are_read_only(self, small_setup):
        config, rig, _ = small_setup
        receiver = LiVoReceiver(rig.cameras, config)
        (result,) = _stream(small_setup, 1)
        planes = receiver.color_decoder.decode(result.color_frame)
        assert len(planes) == 3
        with pytest.raises(ValueError):
            planes[0][0, 0] = 0.0

    def test_decoding_without_a_render_converts_only_marker_rows(
        self, small_setup, monkeypatch
    ):
        config, rig, _ = small_setup
        receiver = LiVoReceiver(rig.cameras, config)
        results = _stream(small_setup, 10)
        converted = []
        convert = video_codec.ycbcr_to_rgb

        def spy(ycbcr):
            converted.append(ycbcr.shape)
            return convert(ycbcr)

        monkeypatch.setattr(video_codec, "ycbcr_to_rgb", spy)
        pairs = [receiver.decode_pair(r.color_frame, r.depth_frame) for r in results]
        strip = (MARKER_HEIGHT, receiver.layout.frame_width, 3)
        assert converted == [strip] * 10
        pairs[-1].color_tiles
        assert converted[-1] == (receiver.layout.frame_height, receiver.layout.frame_width, 3)

    def test_desynced_pair_raises(self, small_setup):
        config, rig, scene = small_setup
        sender = LiVoSender(rig.cameras, config)
        receiver = LiVoReceiver(rig.cameras, config)
        first = sender.process(rig.capture(scene, 0), 8e6, 0.1)
        second = sender.process(rig.capture(scene, 1), 8e6, 0.1, force_intra=True)
        with pytest.raises(ValueError, match="desynchronization"):
            receiver.decode_pair(first.color_frame, second.depth_frame)
        assert receiver.decode_pair_safe(
            first.color_frame.to_bytes(), second.depth_frame.to_bytes()
        ) is None

    @pytest.mark.parametrize(
        "forge",
        [
            lambda frame: dataclasses.replace(frame, height=frame.height + 8),
            lambda frame: dataclasses.replace(frame, width=frame.width - 8),
            # Same block count: the planes decode, only the layout is wrong.
            lambda frame: dataclasses.replace(frame, height=frame.width, width=frame.height),
            lambda frame: dataclasses.replace(frame, payload=frame.payload[:-100]),
        ],
        ids=["height", "width", "transposed", "damaged-payload"],
    )
    @pytest.mark.parametrize("streams", [("color",), ("depth",), ("color", "depth")])
    def test_forged_frame_is_absorbed_and_resets_both_streams(
        self, small_setup, forge, streams
    ):
        config, rig, _ = small_setup
        receiver = LiVoReceiver(rig.cameras, config)
        first, inter, _ = results = _stream(small_setup, 3)
        assert receiver.decode_pair_safe(*_wire(first)) is not None
        frames = {"color": inter.color_frame, "depth": inter.depth_frame}
        for stream in streams:
            frames[stream] = forge(frames[stream])
        with pytest.raises(ValueError):
            LiVoReceiver(rig.cameras, config).decode_pair(
                *(dataclasses.replace(f, frame_type=FrameType.INTRA) for f in frames.values())
            )
        assert receiver.decode_pair_safe(
            frames["color"].to_bytes(), frames["depth"].to_bytes()
        ) is None
        assert receiver.decode_failures == 1
        # Both chains restart: the next INTER pair is refused.
        assert not receiver.can_decode(results[2].color_frame, results[2].depth_frame)

    def test_freeze_frame_still_reconstructs(self, small_setup):
        config, rig, _ = small_setup
        receiver = LiVoReceiver(rig.cameras, config)
        oracle = LiVoReceiver(rig.cameras, config)
        first, inter = _stream(small_setup, 2)
        receiver.decode_pair_safe(*_wire(first))
        _, color_tiles, depth_tiles_mm = eager_decode_pair(
            oracle, first.color_frame, first.depth_frame
        )
        # The next pair is lost; the frozen pair still renders frame 0.
        assert receiver.decode_pair_safe(b"", inter.depth_frame.to_bytes()) is None
        frozen = receiver.freeze_frame()
        assert frozen is not None and frozen.sequence == 0
        cloud = receiver.reconstruct(frozen)
        expected = unproject_views(rig.cameras, depth_tiles_mm, color_tiles)
        assert not cloud.is_empty
        np.testing.assert_array_equal(cloud.positions, expected.positions)
        np.testing.assert_array_equal(cloud.colors, expected.colors)


class TestSessionReport:
    def make_report(self):
        frames = [
            FrameRecord(0, 0.0, True, False, wire_bytes=1000, pssim_geometry=90.0,
                        pssim_color=85.0, split=0.8, culled_points=50, total_points=100),
            FrameRecord(1, 0.1, False, True, wire_bytes=500),
            FrameRecord(2, 0.2, True, False, wire_bytes=1500, pssim_geometry=80.0,
                        pssim_color=75.0, split=0.9, culled_points=60, total_points=100),
        ]
        return SessionReport(
            scheme="LiVo", video="band2", user_trace="u0", network_trace="trace-1",
            fps_target=30.0, duration_s=0.3, frames=frames,
            mean_capacity_mbps=1.0, trace_scale=0.1,
        )

    def test_stall_rate(self):
        assert self.make_report().stall_rate == pytest.approx(1 / 3)

    def test_mean_fps(self):
        assert self.make_report().mean_fps == pytest.approx(2 / 0.3)

    def test_throughput_and_utilization(self):
        report = self.make_report()
        expected_mbps = 3000 * 8 / 0.3 / 1e6
        assert report.throughput_mbps == pytest.approx(expected_mbps)
        assert report.utilization == pytest.approx(expected_mbps / 1.0)
        assert report.paper_equivalent_throughput_mbps == pytest.approx(expected_mbps / 0.1)

    def test_pssim_with_stalls_as_zero(self):
        mean, std = self.make_report().pssim_geometry(stalls_as_zero=True)
        assert mean == pytest.approx((90 + 0 + 80) / 3)

    def test_pssim_without_stalls(self):
        mean, _ = self.make_report().pssim_geometry(stalls_as_zero=False)
        assert mean == pytest.approx(85.0)

    def test_mean_split_and_cull(self):
        report = self.make_report()
        assert report.mean_split == pytest.approx(0.85)
        assert report.mean_culled_fraction == pytest.approx(0.55)

    def test_summary_contains_key_numbers(self):
        text = self.make_report().summary()
        assert "LiVo" in text and "band2" in text and "stalls" in text

    def test_fps_series_shape(self):
        series = self.make_report().fps_series(window_s=0.1)
        assert len(series) == 3


class TestLatencyStats:
    def test_latency_stats_over_delivered_frames(self):
        frames = [
            FrameRecord(0, 0.0, True, False, delivery_time_s=0.05),
            FrameRecord(1, 0.1, True, False, delivery_time_s=0.25),
            FrameRecord(2, 0.2, False, True),  # never delivered
        ]
        report = SessionReport(
            scheme="LiVo", video="v", user_trace="u", network_trace="t",
            fps_target=30.0, duration_s=0.3, frames=frames,
            mean_capacity_mbps=1.0, trace_scale=1.0,
        )
        mean, p50, p95 = report.latency_stats()
        assert mean == pytest.approx(0.1)   # (0.05 + 0.15) / 2
        assert p50 == pytest.approx(0.1)
        assert p95 <= 0.15 + 1e-9

    def test_latency_stats_empty_is_nan_not_zero(self):
        # No delivered frame means no measurement: NaN, not a fake
        # "instant delivery" 0.0.
        report = SessionReport(
            scheme="LiVo", video="v", user_trace="u", network_trace="t",
            fps_target=30.0, duration_s=0.0, frames=[],
            mean_capacity_mbps=1.0, trace_scale=1.0,
        )
        assert all(math.isnan(value) for value in report.latency_stats())

    def test_latency_stats_undelivered_frames_not_conflated_with_zero(self):
        # A session where every frame was lost must not report the same
        # latency as one where every frame arrived instantly.
        lost = SessionReport(
            scheme="LiVo", video="v", user_trace="u", network_trace="t",
            fps_target=30.0, duration_s=0.1,
            frames=[FrameRecord(0, 0.0, False, True)],
            mean_capacity_mbps=1.0, trace_scale=1.0,
        )
        instant = SessionReport(
            scheme="LiVo", video="v", user_trace="u", network_trace="t",
            fps_target=30.0, duration_s=0.1,
            frames=[FrameRecord(0, 0.0, True, False, delivery_time_s=0.0)],
            mean_capacity_mbps=1.0, trace_scale=1.0,
        )
        assert instant.latency_stats() == (0.0, 0.0, 0.0)
        assert all(math.isnan(value) for value in lost.latency_stats())
