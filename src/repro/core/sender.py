"""The LiVo sender pipeline (left half of Fig. 2).

Per capture: predict the receiver frustum and cull the RGB-D views
(section 3.4), tile color and scaled depth into two composed frames
(section 3.2), encode each with a rate-adaptive 2D encoder at the
current bandwidth split (section 3.3), and -- every k frames -- measure
sender-side RMSE from the encoders' reconstructions (the paper's
parallel-decoder trick; our encoder returns the bit-exact decoded frame
directly) to step the split controller.

The pipeline is split into two stage entry points so the stage-graph
runtime can schedule them independently:

- :meth:`LiVoSender.prepare` -- cull + tile (pure per-frame work);
- :meth:`LiVoSender.encode_steps` -- the two stream encodes, the
  dominant cost, as one request-yielding generator: the encoders yield
  their kernel jobs to whichever driver runs the generator
  (:meth:`LiVoSender.encode` resolves them one at a time; a fleet's
  lockstep driver stacks them across sessions).

:meth:`LiVoSender.process` is the one-call convenience wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.capture.rgbd import MultiViewFrame
from repro.codec.frame import EncodedFrame
from repro.codec.video import VideoCodecConfig, VideoEncoder
from repro.core.bandwidth_split import SplitController
from repro.core.config import (
    FIXED_COLOR_QP, FIXED_DEPTH_QP, FRAME_INTERVAL_S, SPLIT_EPSILON,
    SPLIT_INITIAL, SPLIT_MAX, SPLIT_MIN, SessionConfig,
)
from repro.core.schemes import SCHEMES
from repro.depthcodec.scaling import scale_depth
from repro.geometry.camera import RGBDCamera
from repro.metrics.image import rmse
from repro.prediction.culling import cull_views
from repro.prediction.pose import Pose
from repro.prediction.predictor import FrustumPredictor, ViewingDevice
from repro.runtime.batchplane import drive_serial, interleave_steps
from repro.tiling.tiler import TileLayout, Tiler

__all__ = ["LiVoSender", "PreparedFrame", "SenderResult"]

# LiVo compares depth and color RMSE directly (section 3.3).  Depth
# errors live on the 16-bit scaled axis, color on 8-bit; comparing
# native units encodes the paper's depth priority: the split keeps
# rising until depth error is pushed down to color's numeric level,
# which Fig. 4 shows balancing near s = 0.9.
DEPTH_RMSE_SCALE = 1.0


@dataclass
class PreparedFrame:
    """Culled + tiled sender-side intermediate (output of the prepare
    stage, input to the encode stage).

    ``is_empty`` marks the degenerate captures the encode stage must
    skip cleanly: culling removed every visible pixel, or the capture
    itself carried no valid depth (all cameras dropped).  Tiling is
    skipped for them -- there is nothing to tile.
    """

    sequence: int
    tiled_color: np.ndarray | None
    tiled_depth: np.ndarray | None
    culled_points: int
    total_points: int
    culled_multiview: MultiViewFrame

    @property
    def is_empty(self) -> bool:
        """No visible content survived culling (or none was captured)."""
        return self.culled_points == 0


@dataclass
class SenderResult:
    """One capture's encoded output plus bookkeeping.

    ``empty`` marks a degenerate capture that produced nothing to send:
    the frames are None, zero bytes go on the wire, and the encoder
    reference chains are untouched (the next real frame continues the
    chain, no INTRA needed).
    """

    sequence: int
    color_frame: EncodedFrame | None
    depth_frame: EncodedFrame | None
    split: float
    culled_points: int
    total_points: int
    color_rmse: float | None
    depth_rmse: float | None
    culled_multiview: MultiViewFrame
    empty: bool = False

    @property
    def total_bytes(self) -> int:
        """Wire bytes of both streams for this capture."""
        if self.color_frame is None or self.depth_frame is None:
            return 0
        return self.color_frame.size_bytes + self.depth_frame.size_bytes


class LiVoSender:
    """Stateful sender: culling + tiling + split-driven encoding."""

    def __init__(
        self,
        cameras: list[RGBDCamera],
        config: SessionConfig,
        device: ViewingDevice | None = None,
    ) -> None:
        self.cameras = cameras
        self.config = config
        # Whether this sender culls and adapts (Table 2's row).
        self.scheme = SCHEMES[config.scheme]
        intrinsics = cameras[0].intrinsics
        self.layout = TileLayout.for_cameras(
            len(cameras), intrinsics.height, intrinsics.width
        )
        self.color_tiler = Tiler(self.layout, is_color=True)
        self.depth_tiler = Tiler(self.layout, is_color=False)

        self.color_encoder = VideoEncoder(VideoCodecConfig(gop_size=config.gop_size))
        self.depth_encoder = VideoEncoder(VideoCodecConfig.for_depth(gop_size=config.gop_size))
        self.split = SplitController(
            initial=SPLIT_INITIAL,
            minimum=SPLIT_MIN,
            maximum=SPLIT_MAX,
            step=config.split_step,
            epsilon=SPLIT_EPSILON,
        )
        self.predictor = FrustumPredictor(device or ViewingDevice())
        self._frames_processed = 0
        self._recover_with_intra = False
        self.encode_failures = 0

    # ------------------------------------------------------------------
    # Pose feedback
    # ------------------------------------------------------------------

    def observe_pose(self, pose: Pose, timestamp_s: float) -> None:
        """Fold in a delayed pose report from the receiver."""
        self.predictor.observe(pose, timestamp_s)

    def _on_encode_failure(self) -> None:
        """Recover encoder state after a failed encode.

        Both encoders are reset so their next output is a clean INTRA
        pair (a crashed encoder's reference state is untrustworthy),
        which also restores the receiver's prediction chain without an
        explicit PLI round trip.
        """
        self.encode_failures += 1
        self._recover_with_intra = True
        self.color_encoder.reset()
        self.depth_encoder.reset()

    # ------------------------------------------------------------------
    # Stage bodies
    # ------------------------------------------------------------------

    def prepare(
        self, frame: MultiViewFrame, prediction_horizon_s: float
    ) -> PreparedFrame:
        """Cull + tile stage: predict the frustum, cull views, compose tiles.

        Degenerate captures -- culling removed everything, or no camera
        contributed a valid pixel -- come back with ``is_empty`` set and
        no tiles; the encode stage turns them into a skippable result
        instead of encoding all-zero frames.
        """
        total_points = frame.total_points()
        culled = frame
        if self.scheme.culls and self.predictor.ready:
            frustum = self.predictor.predict_frustum(prediction_horizon_s)
            culled = cull_views(frame, self.cameras, frustum)
        culled_points = culled.total_points()
        if culled_points == 0:
            return PreparedFrame(
                sequence=frame.sequence,
                tiled_color=None,
                tiled_depth=None,
                culled_points=0,
                total_points=total_points,
                culled_multiview=culled,
            )

        tiled_color = self.color_tiler.compose(
            [view.color for view in culled.views], frame.sequence
        )
        scaled_views = [
            scale_depth(view.depth_mm) for view in culled.views
        ]
        tiled_depth = self.depth_tiler.compose(scaled_views, frame.sequence)
        return PreparedFrame(
            sequence=frame.sequence,
            tiled_color=tiled_color,
            tiled_depth=tiled_depth,
            culled_points=culled_points,
            total_points=total_points,
            culled_multiview=culled,
        )

    def encode(
        self,
        prepared: PreparedFrame,
        target_rate_bps: float,
        force_intra: bool = False,
        fail_encode: bool = False,
        color_budget_scale: float = 1.0,
    ) -> SenderResult | None:
        """Encode stage: :meth:`encode_steps` on the per-session schedule."""
        return drive_serial(
            self.encode_steps(
                prepared,
                target_rate_bps,
                force_intra=force_intra,
                fail_encode=fail_encode,
                color_budget_scale=color_budget_scale,
            )
        )

    def encode_steps(
        self,
        prepared: PreparedFrame,
        target_rate_bps: float,
        force_intra: bool = False,
        fail_encode: bool = False,
        color_budget_scale: float = 1.0,
    ):
        """Encode stage as a request-yielding generator: both streams.

        The color and depth encoders run as interleaved sub-generators,
        so their kernel jobs share a bucketing round (co-batched across
        sessions by :class:`~repro.runtime.batchplane.BatchPlane`, one at
        a time by :meth:`encode`).  Returns None when the encode fails
        (``fail_encode`` or an encoder exception): the capture is skipped,
        not the session, and the next frame is forced INTRA.  An
        ``is_empty`` frame yields a skippable result without touching the
        encoders.  ``color_budget_scale`` trims the color byte budget
        (the degradation ladder's chroma-lite rung).
        """
        if fail_encode:
            self._on_encode_failure()
            return None
        frames = errors = (None, None)  # (color, depth), as every pair here
        if not prepared.is_empty:
            adapts = self.scheme.adapts
            if adapts:
                budget_bytes = max(target_rate_bps / 8.0 * FRAME_INTERVAL_S, 2.0)
                depth_budget, color_budget = self.split.allocate(budget_bytes)
                if color_budget_scale < 1.0:
                    color_budget = max(color_budget * color_budget_scale, 1.0)
                steps, args = "encode_to_target_steps", (color_budget, depth_budget)
            else:
                steps, args = "encode_steps", (FIXED_COLOR_QP, FIXED_DEPTH_QP)
            # Encoder (looked up per frame), plane, RMSE factor.
            streams = (
                (self.color_encoder, prepared.tiled_color, 1.0),
                (self.depth_encoder, prepared.tiled_depth, DEPTH_RMSE_SCALE),
            )
            force_intra = force_intra or self._recover_with_intra
            try:
                coded = yield from interleave_steps(
                    getattr(encoder, steps)(plane, arg, force_intra=force_intra)
                    for (encoder, plane, _), arg in zip(streams, args)
                )
            except Exception:
                self._on_encode_failure()
                return None
            self._recover_with_intra = False
            frames = tuple(coded)
            if adapts and self._frames_processed % self.config.rmse_every_k == 0:
                # Only RMSE frames build the reconstruction images.
                errors = tuple(rmse(plane, encoder.last_reconstruction) * scale
                               for encoder, plane, scale in streams)
                self.split.update(errors[1], errors[0])
            self._frames_processed += 1
        return SenderResult(
            sequence=prepared.sequence,
            color_frame=frames[0], depth_frame=frames[1],
            split=self.split.split,
            culled_points=prepared.culled_points, total_points=prepared.total_points,
            color_rmse=errors[0], depth_rmse=errors[1],
            culled_multiview=prepared.culled_multiview,
            empty=prepared.is_empty,
        )

    def process(
        self,
        frame: MultiViewFrame,
        target_rate_bps: float,
        prediction_horizon_s: float,
    ) -> SenderResult | None:
        """Run one capture through the full sender pipeline.

        Convenience wrapper over :meth:`prepare` + :meth:`encode`; the
        sessions call the stages separately so the runtime can time and
        schedule them.
        """
        return self.encode(self.prepare(frame, prediction_horizon_s), target_rate_bps)
