"""Replay sessions: the evaluation harness (section 4.1, "Trace replay").

Reads RGB-D frames from the (synthetic) capture rig at 30 fps, drives
them through a scheme's sender, transmits over the emulated network,
and renders at the receiver against the selected user trace -- exactly
the methodology the paper uses to compare LiVo, LiVo-NoCull/NoAdapt,
Draco-Oracle, and MeshReduce under identical workloads.

The per-frame work runs on the stage-graph runtime
(:mod:`repro.runtime`): capture -> prepare (cull+tile) -> encode form a
:class:`~repro.runtime.stage.StageGraph` whose stages are individually
wall-clock instrumented; decode and quality sampling are stages on the
receive side.  The session itself remains the scheduler -- the
feedback loops (GCC rate, bandwidth split, the stall watchdog's
degradation ladder, PLI keyframe requests) all close within one
capture tick, so stages are driven tick-by-tick rather than free-run.
One thing may leave the session thread: with ``config.jobs > 1`` the
PointSSIM scoring (ground truth + metric, evaluation only) is submitted
to a thread pool; at ``jobs == 1`` it runs in-line.  Reports are
byte-identical either way.

Bandwidth scaling: our frames are resolution-reduced, so traces are
scaled by the raw-frame-size ratio (``trace_scale``), keeping the
compression pressure -- raw rate over capacity -- equivalent to the
paper's full-resolution setting.  All throughput/utilization ratios are
scale-invariant; reports also expose paper-equivalent absolute numbers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.capture.rgbd import MultiViewFrame
from repro.capture.rig import CaptureRig, default_rig
from repro.capture.scene import Scene
from repro.compression.draco import DracoCodec
from repro.compression.meshreduce import MeshReducePipeline, MeshReduceProfile
from repro.compression.oracle import DracoOracle, OracleProfile
from repro.core.config import PAPER_FRAME_SIZE_BYTES, SessionConfig
from repro.core.receiver import LiVoReceiver
from repro.core.sender import LiVoSender, PreparedFrame, SenderResult
from repro.core.stats import FaultEvent, FrameRecord, SessionReport
from repro.faults.boundary import StageFaultBoundary
from repro.faults.degradation import StallWatchdog, level_name
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.geometry.camera import RGBDCamera, unproject_views
from repro.geometry.frustum import Frustum
from repro.geometry.pointcloud import PointCloud
from repro.geometry.voxel import voxel_downsample
# ``pointssim`` is not called here but stays importable from this module:
# benchmarks/e2e/spans.py resolves both names on it.
from repro.metrics.pointssim import pointssim, pointssim_batch  # noqa: F401
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, worker_tracer
from repro.perf.capture import CachedFrameSource
from repro.perf.features import FeatureCache
from repro.prediction.pose import PoseTrace
from repro.prediction.predictor import ViewingDevice
from repro.runtime.executors import make_executor
from repro.runtime.profile import merge_timings
from repro.runtime.stage import Stage, StageGraph
from repro.transport.channel import WebRTCChannel
from repro.transport.gcc import GCCConfig
from repro.transport.link import EmulatedLink
from repro.transport.tcp import ReliableByteStream
from repro.transport.traces import BandwidthTrace

__all__ = [
    "ground_truth_cloud",
    "LiVoSession",
    "DracoOracleSession",
    "MeshReduceSession",
]


def ground_truth_cloud(
    frame: MultiViewFrame,
    cameras: list[RGBDCamera],
    actual_frustum: Frustum,
    render_voxel_m: float,
) -> PointCloud:
    """What a perfect system would display for this frame and viewpoint.

    The original capture, fused (all cameras in one
    :func:`~repro.geometry.camera.unproject_views` pass), voxelized at
    render granularity, and culled to the viewer's actual frustum.
    """
    merged = _fuse_views(frame, cameras)
    if merged.is_empty:
        return merged
    voxelized = voxel_downsample(merged, render_voxel_m)
    return voxelized.select(actual_frustum.contains(voxelized.positions))


def _fuse_views(frame: MultiViewFrame, cameras: list[RGBDCamera]) -> PointCloud:
    """Unproject every view of a capture into one world-frame cloud."""
    pairs = list(zip(cameras, frame.views))
    return unproject_views(
        [camera for camera, _ in pairs],
        [view.depth_mm for _, view in pairs],
        [view.color for _, view in pairs],
    )


def _auto_trace_scale(frame: MultiViewFrame) -> float:
    """Bandwidth scale factor from raw frame size (see module docstring)."""
    return max(frame.raw_size_bytes() / PAPER_FRAME_SIZE_BYTES, 1e-6)


def _quality_job(
    frame: MultiViewFrame,
    cameras: list[RGBDCamera],
    actual_frustum: Frustum,
    render_voxel_m: float,
    shown,
    cache: FeatureCache,
    max_points: int | None,
    obs_ctx=None,
):
    """Pure quality-scoring job: build the ground truth, score the shown
    cloud against it.  No session state touched, so it can run on any
    executor thread; everything it needs arrives as an argument.  The
    score is None when the truth is empty (nothing to score).

    ``shown(truth)`` returns the cloud the scheme displayed (MeshReduce
    sizes its mesh sampling by the truth; the others ignore it).

    Returns ``(score, spans)``: with ``obs_ctx`` (a
    :class:`repro.obs.span.TraceContext`) set, the scoring runs inside
    a job-local span handed back for the session tracer to absorb;
    otherwise ``spans`` is None.
    """

    def compute():
        truth = ground_truth_cloud(frame, cameras, actual_frustum, render_voxel_m)
        if truth.is_empty:
            return None
        return pointssim_batch(
            [(truth, shown(truth))], cache=cache, max_points=max_points
        )[0]

    if obs_ctx is None:
        return compute(), None
    tracer = worker_tracer()
    with tracer.span(
        "quality:pointssim",
        category="worker",
        trace_id=obs_ctx.trace_id,
        parent_id=obs_ctx.span_id,
    ):
        score = compute()
    return score, tracer.spans()


@dataclass
class _Tick:
    """One capture tick's state as it traverses the send-side stages."""

    sequence: int
    now: float
    target_rate_bps: float = 0.0
    force_intra: bool = False
    color_budget_scale: float = 1.0
    frame: MultiViewFrame | None = None
    prepared: PreparedFrame | None = None
    result: SenderResult | None = None


@dataclass
class _Replay:
    """What every scheme's replay starts from (:meth:`_SessionBase._open`)."""

    rig: CaptureRig
    source: CachedFrameSource
    first: MultiViewFrame
    user_trace: PoseTrace
    bandwidth_trace: BandwidthTrace
    scaled_trace: BandwidthTrace
    scale: float
    duration_s: float

    def capture(self, sequence: int) -> MultiViewFrame:
        """One synchronized multi-view capture (frame 0 is already held)."""
        return self.first if sequence == 0 else self.source.capture(sequence)


class _QualityLane:
    """PointSSIM on every Nth rendered frame (the paper's cadence).

    The one place a replay scores quality, and the one place work may
    leave the session thread: a due sample renders what the scheme
    showed, then submits ground truth + PointSSIM to the executor
    ``config.jobs`` / ``config.executor`` ask for.  The job gets its
    feature cache and subsample bound as arguments -- nothing about a
    run lives at module level, so overlapping runs cannot touch each
    other's scoring.
    """

    def __init__(
        self,
        session: "_SessionBase",
        replay: _Replay,
        tracer: Tracer | None = None,
    ) -> None:
        self.config = session.config
        self.device = session.device
        self.replay = replay
        self.tracer = tracer
        self.cache = FeatureCache()
        self.stage = Stage("quality", self._submit)
        if tracer is not None:
            self.stage.attach_tracer(tracer, seq_fn=lambda args: args[2])
        self._counter = 0
        self._pending: list[tuple[FrameRecord, object]] = []
        self.executor = make_executor(self.config.jobs, self.config.executor)

    def sample(self, record: FrameRecord, frame: MultiViewFrame, sequence: int, render) -> None:
        """Count one rendered frame; score it when the cadence says so.

        ``render(actual_frustum)`` runs here, on the session thread, and
        returns the job's ``shown`` callable (see :func:`_quality_job`).
        """
        self._counter += 1
        if (self._counter - 1) % self.config.quality_every == 0:
            self.stage((record, frame, sequence, render))

    def _submit(self, args) -> None:
        record, frame, sequence, render = args
        actual = self.device.frustum_for(
            self.replay.user_trace.pose_at_frame(sequence)
        )
        obs_ctx = self.tracer.current_context() if self.tracer is not None else None
        future = self.executor.submit(
            _quality_job,
            frame,
            self.replay.rig.cameras,
            actual,
            self.config.render_voxel_m,
            render(actual),
            self.cache,
            self.config.quality_max_points,
            obs_ctx,
        )
        self._pending.append((record, future))

    def collect(self, final: bool) -> None:
        """Write finished scores onto their records; ``final`` blocks on
        everything still pending."""
        unresolved = []
        for record, future in self._pending:
            if not final and not future.done():
                unresolved.append((record, future))
                continue
            score, spans = future.result()
            if spans and self.tracer is not None:
                self.tracer.absorb(spans)
            if score is not None:
                record.pssim_geometry = score.geometry
                record.pssim_color = score.color
        self._pending = unresolved

    def close(self) -> None:
        self.executor.close()


class _SessionBase:
    """What the three schemes' replays share: set-up, scoring, report."""

    def __init__(self, config: SessionConfig | None = None) -> None:
        self.config = config or SessionConfig()
        self.device = ViewingDevice()

    def _open(
        self,
        scene: Scene,
        user_trace: PoseTrace,
        bandwidth_trace: BandwidthTrace,
        num_frames: int,
    ) -> _Replay:
        """Rig, cached capture source, frame 0 and the scaled trace."""
        if num_frames <= 0:
            raise ValueError("num_frames must be positive")
        config = self.config
        rig = default_rig(
            num_cameras=config.num_cameras,
            width=config.camera_width,
            height=config.camera_height,
            fps=config.fps,
        )
        source = CachedFrameSource(rig, scene)
        first = source.capture(0)
        scale = config.trace_scale
        if scale is None:
            scale = _auto_trace_scale(first) * config.codec_efficiency_compensation
        return _Replay(
            rig=rig,
            source=source,
            first=first,
            user_trace=user_trace,
            bandwidth_trace=bandwidth_trace,
            scaled_trace=bandwidth_trace.scaled(scale),
            scale=scale,
            duration_s=num_frames * config.frame_interval_s,
        )

    def _report(
        self,
        replay: _Replay,
        quality: _QualityLane,
        scheme: str,
        video_name: str,
        fps_target: float,
        frames: list[FrameRecord],
        stage_timings: dict,
        fault_events: list[FaultEvent] | None = None,
        cache_stats: dict | None = None,
    ) -> SessionReport:
        """The finished report with stage timings and cache counters."""
        report = SessionReport(
            scheme=scheme,
            video=video_name,
            user_trace=replay.user_trace.name,
            network_trace=replay.bandwidth_trace.name,
            fps_target=fps_target,
            duration_s=replay.duration_s,
            frames=frames,
            mean_capacity_mbps=replay.scaled_trace.stats().mean,
            trace_scale=replay.scale,
            fault_events=fault_events or [],
        )
        report.attach_stage_timings(stage_timings)
        report.attach_cache_stats(
            {
                **(cache_stats or {}),
                "capture_projection": replay.source.counters().to_dict(),
                "quality_features": quality.cache.counters.to_dict(),
            }
        )
        return report


class LiVoSession(_SessionBase):
    """LiVo / LiVo-NoCull / LiVo-NoAdapt replay (the scheme comes from
    ``config.scheme``).

    The replay interleaves the sender and receiver on one simulated
    clock: every capture tick first resolves the oldest in-flight
    frames (decode + render-deadline accounting), then feeds the stall
    watchdog, then runs the capture -> prepare -> encode stage graph
    and sends.  Interleaving is what lets the receiver's observed
    outcomes steer the sender mid-session -- the degradation ladder --
    and is behavior-identical to the older three-phase replay when no
    faults fire and the ladder stays at level 0.

    ``fault_plan`` injects deterministic faults (camera dropouts, link
    outages, burst loss, encoder failures, corrupt bitstreams), attached
    at stage boundaries via
    :class:`~repro.faults.boundary.StageFaultBoundary`; see
    :mod:`repro.faults`.  ``config.resilience`` controls how much of
    the hardening -- fused partial rigs, skip-not-crash encodes,
    frame-freeze fallback, the watchdog ladder -- is active.
    """

    def run(
        self,
        scene: Scene,
        user_trace: PoseTrace,
        bandwidth_trace: BandwidthTrace,
        num_frames: int,
        video_name: str = "video",
        scheme_name: str | None = None,
        fault_plan: FaultPlan | None = None,
        tracer: Tracer | None = None,
        receiver_id: str | None = None,
    ) -> SessionReport:
        """Replay ``num_frames`` captures through the full pipeline.

        ``tracer`` (or ``config.trace``) turns on per-frame span
        tracing: one sim-clock root span per capture tick with stage,
        kernel, worker, transport, and render spans beneath it.  Off by
        default -- an untraced run's report is byte-identical.
        """
        config = self.config
        replay = self._open(scene, user_trace, bandwidth_trace, num_frames)
        rig, scaled_trace = replay.rig, replay.scaled_trace
        if tracer is None and config.trace:
            tracer = Tracer()
        resilience = config.resilience
        hardened = resilience.enabled
        injector = FaultInjector(fault_plan) if fault_plan is not None else None
        watchdog = (
            StallWatchdog(resilience)
            if resilience.enabled and resilience.ladder_enabled
            else None
        )
        sender = LiVoSender(rig.cameras, config, self.device, receiver_id=receiver_id)
        receiver = LiVoReceiver(rig.cameras, config, receiver_id=receiver_id)
        events: list[FaultEvent] = []
        boundary = StageFaultBoundary(injector, events)

        link = EmulatedLink(
            scaled_trace,
            config.link,
            fault_hook=injector.link_drop if injector is not None else None,
        )
        mean_capacity_bps = scaled_trace.stats().mean * 1e6
        # Start GCC conservatively relative to the (scaled) link, as a
        # real session starts below capacity and probes upward.
        channel = WebRTCChannel(
            link,
            gcc_config=GCCConfig(
                initial_rate_bps=0.5 * mean_capacity_bps,
                min_rate_bps=0.05 * mean_capacity_bps,
                max_rate_bps=10.0 * mean_capacity_bps,
            ),
        )

        if scheme_name is None:
            if config.scheme.culling and config.scheme.adaptation:
                scheme_name = "LiVo"
            elif config.scheme.adaptation:
                scheme_name = "LiVo-NoCull"
            else:
                scheme_name = "LiVo-NoAdapt"

        interval = config.frame_interval_s
        lag = config.pose_feedback_lag_frames
        horizon_s = lag * interval
        duration = replay.duration_s

        if tracer is not None:
            sender.attach_tracer(tracer)

        captures: dict[int, MultiViewFrame] = {}
        encoded: dict[int, tuple] = {}
        records: dict[int, FrameRecord] = {}
        pair_arrivals: dict[int, dict[int, float]] = {}
        pending: deque[int] = deque()
        rx_request_intra = False  # PLI-style request after a poisoned pair

        # ------------------------------------------------------------------
        # Send-side stage graph: capture -> prepare -> encode.  Camera
        # faults attach at the capture stage's exit boundary.
        # ------------------------------------------------------------------

        def do_capture(tick: _Tick) -> _Tick:
            tick.frame = replay.capture(tick.sequence)
            return tick

        def camera_fault_hook(tick: _Tick) -> _Tick:
            tick.frame = boundary.apply_camera_faults(tick.frame, tick.now)
            return tick

        def do_prepare(tick: _Tick) -> _Tick:
            tick.prepared = sender.prepare(tick.frame, horizon_s)
            return tick

        def do_encode(tick: _Tick) -> _Tick:
            tick.result = sender.encode(
                tick.prepared,
                tick.target_rate_bps,
                force_intra=tick.force_intra,
                fail_encode=boundary.encode_fails(tick.sequence),
                color_budget_scale=tick.color_budget_scale,
            )
            return tick

        graph = StageGraph(
            [
                Stage("capture", do_capture, post_hooks=[camera_fault_hook]),
                Stage("prepare", do_prepare),
                Stage("encode", do_encode),
            ]
        )
        if tracer is not None:
            for stage in graph.stages:
                stage.attach_tracer(tracer)

        # Receive-side stages, driven on delivery rather than capture
        # ticks; instrumented the same way.

        def do_decode(args):
            color_frame, depth_frame, sequence, now = args
            color_frame = boundary.corrupt_delivered_pair(color_frame, sequence, now)
            if hardened:
                return receiver.decode_pair_safe(color_frame, depth_frame)
            if receiver.can_decode(color_frame, depth_frame):
                return receiver.decode_pair(color_frame, depth_frame)
            return None

        decode_stage = Stage("decode", do_decode)
        if tracer is not None:
            # The stage takes a positional arg tuple with the frame
            # sequence riding at index 2.
            decode_stage.attach_tracer(tracer, seq_fn=lambda args: args[2])

        def ingest(deliveries) -> None:
            for delivery in deliveries:
                pair_arrivals.setdefault(delivery.frame_sequence, {})[
                    delivery.stream_id
                ] = delivery.completion_time_s
                if tracer is not None:
                    # One sim-clock transport span per delivered stream:
                    # send tick to last-byte delivery.
                    seq = delivery.frame_sequence
                    record = records.get(seq)
                    if record is not None:
                        tracer.add_span(
                            "transport:color"
                            if delivery.stream_id == 0
                            else "transport:depth",
                            "transport",
                            seq,
                            record.capture_time_s,
                            delivery.completion_time_s,
                            parent_id=tracer.frame_root(seq),
                        )

        def observe_deadline(on_time: bool, now: float) -> None:
            """Feed the watchdog; record ladder transitions as events."""
            if watchdog is None:
                return
            new_level = watchdog.observe(on_time, now)
            if new_level is None:
                return
            recovered = on_time
            events.append(
                FaultEvent(
                    time_s=now,
                    category="recover_step" if recovered else "degrade_step",
                    detail=f"ladder -> {level_name(new_level)}",
                    recovered=recovered,
                )
            )

        def sample_quality(record: FrameRecord, pair, sequence: int) -> None:
            """Offer one rendered frame to the quality lane."""

            def render(actual: Frustum):
                voxel_m = None
                if watchdog is not None and watchdog.voxel_scale() > 1.0:
                    voxel_m = config.render_voxel_m * watchdog.voxel_scale()
                shown = receiver.render_view(
                    receiver.reconstruct(pair), actual, voxel_m
                )
                return lambda truth: shown

            quality.sample(record, captures[sequence], sequence, render)

        def prune(sequence: int) -> None:
            """Drop a resolved frame's buffered state (bounded memory)."""
            captures.pop(sequence, None)
            encoded.pop(sequence, None)
            pair_arrivals.pop(sequence, None)
            channel.release_frame(sequence)

        def resolve_head(now: float, final: bool) -> bool:
            """Resolve the oldest in-flight frame if its fate is known.

            A frame resolves when its pair is fully delivered (decode +
            deadline check), when either stream was abandoned by the
            channel (freeze fallback), or unconditionally during the
            final drain.  Resolution strictly follows sequence order so
            the decoder reference chains advance exactly as a live
            receiver's would.
            """
            nonlocal rx_request_intra
            sequence = pending[0]
            record = records[sequence]
            arrivals = pair_arrivals.get(sequence, {})
            complete = 0 in arrivals and 1 in arrivals
            abandoned = channel.frame_abandoned(0, sequence) or channel.frame_abandoned(
                1, sequence
            )
            if complete:
                pair_time = max(arrivals.values())
                deadline = record.capture_time_s + config.playout_delay_s
                playout_time = pair_time + config.jitter_target_s
                color_frame, depth_frame = encoded[sequence]
                pair = decode_stage((color_frame, depth_frame, sequence, now))
                if pair is not None:
                    record.delivery_time_s = pair_time
                    if playout_time <= deadline + 1e-9:
                        record.rendered = True
                        record.stalled = False
                        sample_quality(record, pair, sequence)
                        observe_deadline(True, now)
                    else:
                        observe_deadline(False, now)
                    if tracer is not None:
                        if record.rendered:
                            # Render span: one frame interval on screen
                            # from the jitter-buffered playout point.
                            tracer.add_span(
                                "render",
                                "stage",
                                sequence,
                                playout_time,
                                playout_time + interval,
                                parent_id=tracer.frame_root(sequence),
                            )
                            tracer.close_frame(
                                sequence, playout_time + interval, status="rendered"
                            )
                        else:
                            tracer.close_frame(sequence, playout_time, status="late")
                else:
                    # Undecodable pair: freeze the last good frame and
                    # ask the sender for a keyframe (PLI semantics).
                    if hardened:
                        rx_request_intra = True
                        if receiver.freeze_frame() is not None:
                            record.frozen = True
                            events.append(
                                FaultEvent(
                                    time_s=now,
                                    category="frame_freeze",
                                    detail="undecodable pair; showing last good frame",
                                    sequence=sequence,
                                )
                            )
                    observe_deadline(False, now)
                    if tracer is not None:
                        tracer.close_frame(
                            sequence,
                            now,
                            status="frozen" if record.frozen else "undecodable",
                        )
            elif abandoned or final:
                if abandoned:
                    events.append(
                        FaultEvent(
                            time_s=now,
                            category="frame_abandoned",
                            detail="retransmissions exhausted; PLI raised",
                            sequence=sequence,
                        )
                    )
                if hardened and receiver.freeze_frame() is not None:
                    record.frozen = True
                observe_deadline(False, now)
                if tracer is not None:
                    tracer.close_frame(
                        sequence,
                        now,
                        status="frozen" if record.frozen else "undelivered",
                    )
            else:
                return False
            pending.popleft()
            prune(sequence)
            return True

        # --------------------------------------------------------------
        # Interleaved replay: resolve receives, then capture and send.
        # --------------------------------------------------------------
        quality = _QualityLane(self, replay, tracer)
        try:
            for sequence in range(num_frames):
                now = sequence * interval
                ingest(channel.poll_deliveries(now))
                while pending and resolve_head(now, final=False):
                    pass
                quality.collect(final=False)
                if sequence >= lag:
                    sender.observe_pose(
                        user_trace.pose_at_frame(sequence - lag),
                        (sequence - lag) * interval,
                    )
                boundary.tick(now)
                if tracer is not None:
                    tracer.open_frame(sequence, now)
                level = watchdog.level if watchdog is not None else 0
                if watchdog is not None and watchdog.skips_tick(sequence):
                    records[sequence] = FrameRecord(
                        sequence=sequence,
                        capture_time_s=now,
                        rendered=False,
                        stalled=False,
                        skipped=True,
                        degradation_level=level,
                    )
                    if tracer is not None:
                        tracer.close_frame(sequence, now, status="skipped")
                    continue
                force_intra = (
                    channel.needs_keyframe(0)
                    or channel.needs_keyframe(1)
                    or rx_request_intra
                )
                tick = graph.run_item(
                    _Tick(
                        sequence=sequence,
                        now=now,
                        target_rate_bps=channel.target_rate_bps(),
                        force_intra=force_intra,
                        color_budget_scale=(
                            watchdog.color_budget_scale()
                            if watchdog is not None
                            else 1.0
                        ),
                    )
                )
                captures[sequence] = tick.frame
                result = tick.result
                if result is None:
                    records[sequence] = FrameRecord(
                        sequence=sequence,
                        capture_time_s=now,
                        rendered=False,
                        stalled=True,
                        encode_failed=True,
                        degradation_level=level,
                    )
                    events.append(
                        FaultEvent(
                            time_s=now,
                            category="encode_failure",
                            detail="encode failed; capture skipped, next frame INTRA",
                            sequence=sequence,
                        )
                    )
                    observe_deadline(False, now)
                    if tracer is not None:
                        tracer.close_frame(sequence, now, status="encode_failed")
                    continue
                if result.empty:
                    # Degenerate capture: culling removed every visible
                    # point (or no camera contributed one).  Nothing to
                    # send -- a valid, skippable outcome, not a failure;
                    # the encoder reference chains are untouched.
                    records[sequence] = FrameRecord(
                        sequence=sequence,
                        capture_time_s=now,
                        rendered=False,
                        stalled=False,
                        total_points=result.total_points,
                        degradation_level=level,
                        empty=True,
                    )
                    if tracer is not None:
                        tracer.close_frame(sequence, now, status="empty")
                    continue
                if force_intra:
                    rx_request_intra = False
                encoded[sequence] = (result.color_frame, result.depth_frame)
                records[sequence] = FrameRecord(
                    sequence=sequence,
                    capture_time_s=now,
                    rendered=False,
                    stalled=True,
                    wire_bytes=result.total_bytes,
                    split=result.split,
                    culled_points=result.culled_points,
                    total_points=result.total_points,
                    degradation_level=level,
                )
                channel.send_frame(0, sequence, result.color_frame.size_bytes, now)
                channel.send_frame(1, sequence, result.depth_frame.size_bytes, now)
                pending.append(sequence)

            # Final drain: resolve every frame still in flight.
            ingest(channel.poll_deliveries(duration + 5.0))
            while pending:
                resolve_head(duration + 5.0, final=True)

            # Collect the quality scores still out on the executor
            # (already resolved when serial).
            quality.collect(final=True)
        finally:
            quality.close()

        for stream_id, marker_sequence in channel.marker_frames:
            events.append(
                FaultEvent(
                    time_s=marker_sequence * interval,
                    category="zero_byte_frame",
                    detail=f"stream {stream_id} frame culled to zero bytes; marker sent",
                    sequence=marker_sequence,
                )
            )
        events.sort(key=lambda event: event.time_s)
        if tracer is not None:
            for event in events:
                tracer.instant(
                    f"fault:{event.category}",
                    "fault",
                    trace_id=event.sequence,
                    time_s=event.time_s,
                    attrs={"detail": event.detail},
                )
            tracer.finish(duration + 5.0)

        report = self._report(
            replay,
            quality,
            scheme_name,
            video_name,
            config.fps,
            [records[sequence] for sequence in range(num_frames)],
            merge_timings(
                graph.timings(),
                {s.name: s.timing for s in (decode_stage, quality.stage)},
            ),
            fault_events=events,
            cache_stats={
                "codec_scratch": sender.cache_counters().to_dict(),
                "transport_batch": channel.batch_counters.to_dict(),
            },
        )

        # Unified metrics registry: the older telemetry channels (cache
        # counters, stage timings, transport batch counters, fault
        # events) folded into one queryable namespace.  Built from
        # already-collected aggregates, so the hot path is untouched.
        registry = MetricsRegistry()
        registry.absorb_stage_timings(report.stage_timings or {})
        # transport_batch is registered by channel.metrics_into;
        # absorbing it from cache_stats too would double-count.
        registry.absorb_cache_stats(
            {
                name: entry
                for name, entry in report.cache_stats.items()
                if name != "transport_batch"
            }
        )
        channel.metrics_into(registry)
        if injector is not None:
            injector.metrics_into(registry)
        registry.absorb_fault_events(events)
        if watchdog is not None:
            # The drain observes deadlines at duration + 5 s; close the
            # time-per-rung accounting on the same sim clock.
            watchdog.finalize(duration + 5.0)
            watchdog.metrics_into(registry)
        report.attach_metrics(registry)
        if tracer is not None:
            report.attach_trace(tracer)
        return report


class DracoOracleSession(_SessionBase):
    """Draco-Oracle replay at 15 fps with perfect culling (section 4.1)."""

    def run(
        self,
        scene: Scene,
        user_trace: PoseTrace,
        bandwidth_trace: BandwidthTrace,
        num_frames: int,
        video_name: str = "video",
        oracle_fps: float = 15.0,
    ) -> SessionReport:
        """Replay; ``num_frames`` counts 30 fps capture ticks."""
        config = self.config
        replay = self._open(scene, user_trace, bandwidth_trace, num_frames)
        rig, first, scaled_trace = replay.rig, replay.first, replay.scaled_trace

        stride = max(1, int(round(config.fps / oracle_fps)))
        # Perfect culling: the oracle is handed the receiver's actual
        # frustum (no prediction error), per the paper's definition.
        def culled_cloud(frame: MultiViewFrame, sequence: int) -> PointCloud:
            frustum = self.device.frustum_for(user_trace.pose_at_frame(sequence))
            merged = _fuse_views(frame, rig.cameras)
            if merged.is_empty:
                return merged
            return merged.select(frustum.contains(merged.positions))

        profile = OracleProfile.build([culled_cloud(first, 0)])
        # Compute pressure must be paper-equivalent: our frames carry
        # fewer points than the paper's 10.8 MB captures, but the 1/15 s
        # deadline is wall-clock (see DracoOracle.time_multiplier).
        compute_scale = PAPER_FRAME_SIZE_BYTES / max(first.raw_size_bytes(), 1)
        oracle = DracoOracle(profile, fps=oracle_fps, time_multiplier=compute_scale)

        capture_stage = Stage("capture", replay.capture)
        cull_stage = Stage("cull", lambda args: culled_cloud(*args))
        encode_stage = Stage(
            "encode",
            lambda args: oracle.encode_frame(args[0], args[1])
            if not args[0].is_empty
            else None,
        )

        records = []
        quality = _QualityLane(self, replay)
        try:
            for sequence in range(0, num_frames, stride):
                capture_time = sequence * config.frame_interval_s
                frame = capture_stage(sequence)
                cloud = cull_stage((frame, sequence))
                capacity_bps = scaled_trace.capacity_bps_at(capture_time)
                encoded = encode_stage((cloud, capacity_bps))
                record = FrameRecord(
                    sequence=sequence,
                    capture_time_s=capture_time,
                    rendered=False,
                    stalled=True,
                    total_points=cloud.num_points,
                    culled_points=cloud.num_points,
                )
                if encoded is not None:
                    record.wire_bytes = encoded.size_bytes
                    transmit = encoded.size_bytes * 8.0 / capacity_bps
                    delivery = (
                        capture_time + encoded.encode_time_s * compute_scale + transmit
                        + config.link.propagation_delay_s
                    )
                    record.delivery_time_s = delivery
                    if delivery <= capture_time + config.playout_delay_s:
                        record.rendered = True
                        record.stalled = False

                        def render(actual: Frustum):
                            decoded = DracoCodec.decode(encoded)
                            shown = voxel_downsample(decoded, config.render_voxel_m)
                            shown = shown.select(actual.contains(shown.positions))
                            return lambda truth: shown

                        quality.sample(record, frame, sequence, render)
                records.append(record)
            quality.collect(final=True)
        finally:
            quality.close()

        return self._report(
            replay,
            quality,
            "Draco-Oracle",
            video_name,
            oracle_fps,
            records,
            {
                s.name: s.timing
                for s in (capture_stage, cull_stage, encode_stage, quality.stage)
            },
        )


class MeshReduceSession(_SessionBase):
    """MeshReduce replay: indirect adaptation, floating frame rate."""

    def run(
        self,
        scene: Scene,
        user_trace: PoseTrace,
        bandwidth_trace: BandwidthTrace,
        num_frames: int,
        video_name: str = "video",
        conservativeness: float = 0.35,
    ) -> SessionReport:
        """Replay ``num_frames`` 30 fps capture ticks."""
        config = self.config
        replay = self._open(scene, user_trace, bandwidth_trace, num_frames)
        rig, scaled_trace = replay.rig, replay.scaled_trace

        profile = MeshReduceProfile.build([replay.first], rig.cameras)
        voxel = profile.select_voxel(
            scaled_trace.stats().mean * 1e6, fps=15.0, conservativeness=conservativeness
        )
        stream = ReliableByteStream(scaled_trace, config.link.propagation_delay_s)
        pipeline = MeshReducePipeline(rig.cameras, stream, voxel)

        capture_stage = Stage("capture", replay.capture)
        compress_stage = Stage(
            "compress", lambda args: pipeline.offer_frame(args[0], args[1])
        )

        records = []
        quality = _QualityLane(self, replay)
        try:
            for sequence in range(num_frames):
                capture_time = sequence * config.frame_interval_s
                frame = capture_stage(sequence)
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
                if result.sent and result.mesh is not None:

                    def render(actual: Frustum, mesh=result.mesh, seed=sequence):
                        # ``shown`` may run later, on an executor thread:
                        # it must not read this loop's variables.
                        def shown(truth: PointCloud) -> PointCloud:
                            sampled = pipeline.reconstruct(
                                mesh, max(2 * len(truth), 1000), seed=seed
                            )
                            return sampled.select(actual.contains(sampled.positions))

                        return shown

                    quality.sample(record, frame, sequence, render)
                records.append(record)
            quality.collect(final=True)
        finally:
            quality.close()

        return self._report(
            replay,
            quality,
            "MeshReduce",
            video_name,
            15.0,
            records,
            {
                s.name: s.timing
                for s in (capture_stage, compress_stage, quality.stage)
            },
        )
