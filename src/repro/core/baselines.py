"""The 3D baselines' replays: Draco-Oracle and MeshReduce (section 4.1).

Each replays a scene, a user trace and a bandwidth trace under the same
methodology as :class:`~repro.core.session.LiVoSession` -- capture at
30 fps, the quality lane scoring every Nth rendered frame -- but sends
through its own 3D pipeline (:mod:`repro.compression`).  Only these
replays load that package: :func:`~repro.core.session.run_scheme`
imports this module for a baseline's name alone.
"""

from __future__ import annotations

from repro.capture.rgbd import MultiViewFrame
from repro.capture.scene import Scene
from repro.compression.draco import DracoCodec
from repro.compression.meshreduce import MeshReducePipeline, MeshReduceProfile
from repro.compression.oracle import DracoOracle, OracleProfile
from repro.core.config import (
    FPS, FRAME_INTERVAL_S, PAPER_FRAME_SIZE_BYTES, PLAYOUT_DELAY_S, RENDER_VOXEL_M,
)
from repro.core.schemes import SCHEMES
from repro.core.session import _fate, _fuse_views, _QualityLane, _Replay, _SessionBase
from repro.core.stats import FrameRecord, SessionReport
from repro.geometry.frustum import Frustum
from repro.geometry.pointcloud import PointCloud
from repro.geometry.voxel import voxel_downsample
from repro.prediction.pose import PoseTrace
from repro.runtime.stage import Stage
from repro.transport.tcp import ReliableByteStream
from repro.transport.traces import BandwidthTrace

__all__ = ["DracoOracleSession", "MeshReduceSession"]

# MeshReduce picks its voxel size with this safety margin below the
# mean capacity (the indirect-adaptation margin).
MESHREDUCE_CONSERVATIVENESS = 0.35


class _BaselineSession(_SessionBase):
    """One baseline's replay: ``SCHEME`` names it, and ``config.scheme``
    must be that name (:func:`~repro.core.session.run_scheme` runs any
    scheme)."""

    SCHEME = ""

    @property
    def fps(self) -> float:
        """The scheme's frame rate (Table 2)."""
        return float(SCHEMES[self.SCHEME].fps)

    def _open(self, *args) -> _Replay:
        if self.config.scheme != self.SCHEME:
            raise ValueError(
                f"{type(self).__name__} replays {self.SCHEME}, not {self.config.scheme}; "
                "run_scheme replays any scheme"
            )
        return super()._open(*args)

    def _replay(
        self,
        replay: _Replay,
        sequences: range,
        step,
        stages: list[str],
        video_name: str,
    ) -> SessionReport:
        """The baseline schemes' replay loop.

        Per capture tick in ``sequences``: a frame root on
        ``replay.tracer``, the capture stage, then the scheme's
        ``step(frame, sequence, capture_time)``, which runs the stages
        ``stages`` names and returns the tick's :class:`FrameRecord`, the
        ``render`` callable the quality lane samples for a rendered frame
        (None otherwise), and the frame's fate, which closes the root at
        its delivery (at its capture when nothing was delivered).
        """
        capture_stage = Stage(
            "capture", replay.source.capture, replay.tracer, seq_fn=lambda sequence: sequence
        )
        quality = _QualityLane(self, replay)
        records = []
        try:
            for sequence in sequences:
                capture_time = sequence * FRAME_INTERVAL_S
                replay.tracer.open_frame(sequence, capture_time)
                frame = capture_stage(sequence)
                record, render, status = step(frame, sequence, capture_time)
                if render is not None:
                    quality.sample(record, frame, sequence, render)
                delivered = record.delivery_time_s
                fate_time = capture_time if delivered is None else delivered
                _fate(replay.tracer, sequence, fate_time, status)
                records.append(record)
            quality.collect(final=True)
        finally:
            quality.close()
        return self._report(
            replay, quality, self.SCHEME, video_name, self.fps, records,
            [capture_stage.name, *stages],
        )


class DracoOracleSession(_BaselineSession):
    """Draco-Oracle replay at its Table 2 rate with perfect culling
    (section 4.1)."""

    SCHEME = "Draco-Oracle"

    def run(
        self,
        scene: Scene,
        user_trace: PoseTrace,
        bandwidth_trace: BandwidthTrace,
        num_frames: int,
        video_name: str = "video",
    ) -> SessionReport:
        """Replay; ``num_frames`` counts 30 fps capture ticks."""
        config = self.config
        replay = self._open(scene, user_trace, bandwidth_trace, num_frames)
        cameras, first = replay.source.rig.cameras, replay.first

        # Perfect culling: the oracle is handed the receiver's actual
        # frustum (no prediction error), per the paper's definition.
        def culled_cloud(frame: MultiViewFrame, sequence: int) -> PointCloud:
            frustum = self.device.frustum_for(user_trace.pose_at_frame(sequence))
            merged = _fuse_views(frame, cameras)
            if merged.is_empty:
                return merged
            return merged.select(frustum.contains(merged.positions))

        profile = OracleProfile.build([culled_cloud(first, 0)])
        # Compute pressure must be paper-equivalent: our frames carry
        # fewer points than the paper's 10.8 MB captures, but the 1/15 s
        # deadline is wall-clock (see DracoOracle.time_multiplier).
        compute_scale = PAPER_FRAME_SIZE_BYTES / max(first.raw_size_bytes(), 1)
        oracle = DracoOracle(profile, fps=self.fps, time_multiplier=compute_scale)
        # A stage item carries its frame sequence last.
        cull_stage = Stage(
            "cull", lambda args: culled_cloud(*args), replay.tracer, seq_fn=lambda args: args[-1]
        )
        encode_stage = Stage(
            "encode",
            lambda args: oracle.encode_frame(*args[:2]) if not args[0].is_empty else None,
            replay.tracer,
            seq_fn=lambda args: args[-1],
        )

        def step(frame: MultiViewFrame, sequence: int, capture_time: float):
            cloud = cull_stage((frame, sequence))
            capacity_bps = replay.scaled_trace.capacity_bps_at(capture_time)
            encoded = encode_stage((cloud, capacity_bps, sequence))
            record = FrameRecord(
                sequence=sequence,
                capture_time_s=capture_time,
                rendered=False,
                stalled=True,
                total_points=cloud.num_points,
                culled_points=cloud.num_points,
            )
            if encoded is None:
                return record, None, "empty"
            record.wire_bytes = encoded.size_bytes
            record.delivery_time_s = (
                capture_time + encoded.encode_time_s * compute_scale
                + encoded.size_bytes * 8.0 / capacity_bps
                + config.link.propagation_delay_s
            )
            if not record.delivery_time_s <= capture_time + PLAYOUT_DELAY_S:
                return record, None, "late"
            record.rendered, record.stalled = True, False

            def render(actual: Frustum):
                shown = voxel_downsample(DracoCodec.decode(encoded), RENDER_VOXEL_M)
                shown = shown.select(actual.contains(shown.positions))
                return lambda truth: shown

            return record, render, "rendered"

        stride = max(1, int(round(FPS / self.fps)))
        return self._replay(
            replay, range(0, num_frames, stride), step, [cull_stage.name, encode_stage.name],
            video_name,
        )


class MeshReduceSession(_BaselineSession):
    """MeshReduce replay: indirect adaptation, floating frame rate."""

    SCHEME = "MeshReduce"

    def run(
        self,
        scene: Scene,
        user_trace: PoseTrace,
        bandwidth_trace: BandwidthTrace,
        num_frames: int,
        video_name: str = "video",
    ) -> SessionReport:
        """Replay ``num_frames`` 30 fps capture ticks."""
        config = self.config
        replay = self._open(scene, user_trace, bandwidth_trace, num_frames)
        cameras, scaled_trace = replay.source.rig.cameras, replay.scaled_trace
        profile = MeshReduceProfile.build([replay.first], cameras)
        voxel = profile.select_voxel(
            scaled_trace.mean_mbps * 1e6, fps=self.fps,
            conservativeness=MESHREDUCE_CONSERVATIVENESS,
        )
        stream = ReliableByteStream(scaled_trace, config.link.propagation_delay_s)
        pipeline = MeshReducePipeline(cameras, stream, voxel)
        compress_stage = Stage(
            "compress", lambda args: pipeline.offer_frame(*args), replay.tracer,
            seq_fn=lambda args: args[0].sequence,
        )

        def step(frame: MultiViewFrame, sequence: int, capture_time: float):
            result = compress_stage((frame, capture_time))
            # MeshReduce never stalls; skipped frames lower its rate
            # (section 4.3: "instead of experiencing stalls, it exhibits
            # varying frame rates").
            record = FrameRecord(
                sequence=sequence,
                capture_time_s=capture_time,
                rendered=result.sent,
                stalled=False,
                wire_bytes=result.size_bytes,
                total_points=frame.total_points(),
                culled_points=frame.total_points(),
                delivery_time_s=result.delivery_time_s,
            )
            if not result.sent:
                # Busy encoder/link skips the tick; an empty mesh has
                # nothing to send.
                return record, None, "empty" if result.mesh is not None else "skipped"

            def render(actual: Frustum):
                # ``shown`` runs later, on the scoring thread: it reads
                # only this tick's mesh and sequence.
                def shown(truth: PointCloud) -> PointCloud:
                    sampled = pipeline.reconstruct(
                        result.mesh, max(2 * len(truth), 1000), seed=sequence
                    )
                    return sampled.select(actual.contains(sampled.positions))

                return shown

            return record, render, "rendered"

        return self._replay(replay, range(num_frames), step, [compress_stage.name], video_name)


# The replays of the baselines, by scheme name.
REPLAYS = {cls.SCHEME: cls for cls in (DracoOracleSession, MeshReduceSession)}
