"""Sender-side laboratory: controlled encode experiments without a network.

Several design-validation figures (4, 17, 18/19, A.2) hold the network
constant and study the encoding path alone: encode tiled frames at a
fixed byte budget/split, reconstruct at the sender (bit-exact with the
receiver), and score against ground truth.  This module provides that
loop once.

The lab measures the *unculled* path: its senders never get a pose
(``observe_pose`` is not called), so every frame is encoded whole.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.capture.dataset import load_video
from repro.core.bandwidth_split import SplitController
from repro.core.config import (
    FPS,
    HORIZON_S,
    MAX_DEPTH_MM,
    RENDER_VOXEL_M,
    SPLIT_MAX,
    SPLIT_MIN,
    SessionConfig,
)
from repro.core.sender import DEPTH_RMSE_SCALE, LiVoSender
from repro.core.session import ground_truth_cloud
from repro.depthcodec.scaling import scale_depth, unscale_depth
from repro.geometry.camera import unproject_views
from repro.metrics.image import rmse
from repro.metrics.pointssim import PSSIMResult, pointssim
from repro.perf.capture import CachedFrameSource
from repro.prediction.pose import user_traces_for_video
from repro.prediction.predictor import ViewingDevice

LAB_CONFIG = SessionConfig(
    num_cameras=8,
    camera_width=64,
    camera_height=48,
    scene_sample_budget=20_000,
    gop_size=15,
)


@dataclass
class LabRun:
    """Result of an encode run over several frames."""

    color_rmse: float
    depth_rmse: float             # native 16-bit scaled-depth units
    depth_error_mm: float
    pssim: PSSIMResult
    color_bytes: int
    depth_bytes: int
    split: float


def make_workload(video: str = "band2", num_frames: int = 10):
    """A rig, scene frames, and a viewer pose for lab runs."""
    _, scene = load_video(video, sample_budget=LAB_CONFIG.scene_sample_budget)
    source = CachedFrameSource.for_config(LAB_CONFIG, scene)
    frames = [source.capture(sequence) for sequence in range(num_frames)]
    user = user_traces_for_video(video, num_frames + 5)[0]
    return source.rig, frames, user


def run_static_split(
    rig,
    frames,
    user,
    budget_bytes_per_frame: float,
    split: float | None,
    config: SessionConfig | None = None,
) -> LabRun:
    """Encode frames at a per-frame byte budget with a static or dynamic
    split; scores are measured on the final frame (rate control settled).

    ``split=None`` runs LiVo's dynamic controller.
    """
    config = config or LAB_CONFIG
    sender = LiVoSender(rig.cameras, config)
    if split is not None:
        sender.split = SplitController(
            initial=split,
            minimum=min(split, SPLIT_MIN),
            maximum=max(split, SPLIT_MAX),
            frozen=True,
        )
    device = ViewingDevice()

    target_rate_bps = budget_bytes_per_frame * 8.0 * FPS
    last = None
    for frame in frames:
        last = sender.process(frame, target_rate_bps, prediction_horizon_s=HORIZON_S)
    assert last is not None

    final_frame = frames[-1]
    tiled_color = sender.color_tiler.compose(
        [v.color for v in final_frame.views], final_frame.sequence
    )
    scaled = [scale_depth(v.depth_mm, MAX_DEPTH_MM) for v in final_frame.views]
    tiled_depth = sender.depth_tiler.compose(scaled, final_frame.sequence)
    color_recon = sender.color_encoder.last_reconstruction
    depth_recon = sender.depth_encoder.last_reconstruction

    color_error = rmse(tiled_color, color_recon)
    depth_error_scaled = rmse(tiled_depth, depth_recon)

    # Receiver-equivalent reconstruction for PointSSIM.
    actual = device.frustum_for(user.pose_at_frame(final_frame.sequence))
    truth = ground_truth_cloud(final_frame, rig.cameras, actual, RENDER_VOXEL_M)
    recon_views = _untile_views(sender, color_recon, depth_recon)
    merged = unproject_views(
        rig.cameras,
        [depth for _, depth in recon_views],
        [color for color, _ in recon_views],
    )
    from repro.geometry.voxel import voxel_downsample

    shown = voxel_downsample(merged, RENDER_VOXEL_M)
    shown = shown.select(actual.contains(shown.positions))
    score = pointssim(truth, shown) if not truth.is_empty else PSSIMResult(0.0, 0.0)

    return LabRun(
        color_rmse=color_error,
        depth_rmse=depth_error_scaled * DEPTH_RMSE_SCALE,
        depth_error_mm=depth_error_scaled * MAX_DEPTH_MM / 65535.0,
        pssim=score,
        color_bytes=last.color_frame.size_bytes,
        depth_bytes=last.depth_frame.size_bytes,
        split=sender.split.split,
    )


def _untile_views(sender, color_recon, depth_recon):
    """Split reconstructed tiled frames back into per-camera views."""
    color_tiles, _ = sender.color_tiler.decompose(color_recon)
    depth_tiles, _ = sender.depth_tiler.decompose(depth_recon)
    return [
        (color, unscale_depth(depth, MAX_DEPTH_MM))
        for color, depth in zip(color_tiles, depth_tiles)
    ]


def lab_config_with(**overrides) -> SessionConfig:
    """LAB_CONFIG with fields replaced."""
    return replace(LAB_CONFIG, **overrides)
