"""Replay sessions: the evaluation harness (section 4.1, "Trace replay").

Reads RGB-D frames from the (synthetic) capture rig at 30 fps, drives
them through a scheme's sender, transmits over the emulated network,
and renders at the receiver against the selected user trace -- exactly
the methodology the paper uses to compare LiVo, LiVo-NoCull/NoAdapt,
Draco-Oracle, and MeshReduce under identical workloads.

The per-frame work runs as stages (:mod:`repro.runtime`):
capture -> prepare (cull+tile) -> encode form a
:class:`~repro.runtime.stage.StageGraph`; decode and quality sampling
are stages on the receive side.  Every replay records on one
:class:`~repro.obs.tracer.Tracer`, opened with it: each stage item is
one wall-clock span, and the report's stage timings are read off those
spans.  The session is the scheduler -- the feedback loops (GCC
rate, bandwidth split, the stall watchdog's degradation ladder, PLI
keyframe requests) all close within one capture tick, so stages are
driven tick by tick, in-line, on the session thread.  One thing
leaves it: the PointSSIM scoring (ground truth + metric, evaluation
only) runs on the one thread of a
``concurrent.futures.ThreadPoolExecutor`` the quality lane owns.  The
score never feeds back into the session, so reports are byte-identical
to scoring in-line.

Bandwidth scaling: our frames are resolution-reduced, so traces are
scaled by the raw-frame-size ratio (``trace_scale``), keeping the
compression pressure -- raw rate over capacity -- equivalent to the
paper's full-resolution setting.  All throughput/utilization ratios are
scale-invariant; reports also expose paper-equivalent absolute numbers.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass

from repro.capture.rgbd import MultiViewFrame
from repro.capture.scene import Scene
from repro.codec.frame import EncodedFrame
from repro.core.config import (
    CODEC_EFFICIENCY_COMPENSATION, FPS, FRAME_INTERVAL_S, HORIZON_S, JITTER_TARGET_S,
    PAPER_FRAME_SIZE_BYTES, PLAYOUT_DELAY_S, POSE_FEEDBACK_LAG_FRAMES, RENDER_VOXEL_M,
    SessionConfig,
)
from repro.core.receiver import LiVoReceiver
from repro.core.schemes import LIVO_SCHEMES
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
from repro.obs.span import Span
from repro.obs.tracer import Tracer
from repro.perf.capture import CachedFrameSource
from repro.prediction.pose import PoseTrace
from repro.prediction.predictor import ViewingDevice
from repro.runtime.stage import Stage, StageGraph
from repro.transport.channel import FrameDelivery, WebRTCChannel
from repro.transport.gcc import GCCConfig
from repro.transport.link import EmulatedLink
from repro.transport.traces import BandwidthTrace

__all__ = ["ground_truth_cloud", "LiVoSession", "run_scheme"]

# The drain polls and observes deadlines this long after the last
# capture tick, on the same sim clock; the trace closes there.
DRAIN_S = 5.0


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


def _quality_job(
    frame: MultiViewFrame,
    cameras: list[RGBDCamera],
    actual_frustum: Frustum,
    render_voxel_m: float,
    shown,
    max_points: int | None,
    tracer: Tracer,
    parent: Span,
):
    """Pure quality-scoring job: build the ground truth, score the shown
    cloud against it.  No session state touched, so it can run on the
    scoring thread; everything it needs arrives as an argument, and
    nothing outlives the job.  Returns the score, or None when the truth
    is empty (nothing to score).

    ``shown(truth)`` returns the cloud the scheme displayed (MeshReduce
    sizes its mesh sampling by the truth; the others ignore it).

    The scoring runs inside a ``quality:pointssim`` span on ``tracer``,
    parented under ``parent`` (the submitting ``quality`` stage span,
    captured on the session thread).
    """
    with tracer.span(
        "quality:pointssim",
        category="worker",
        trace_id=parent.trace_id,
        parent_id=parent.span_id,
    ):
        truth = ground_truth_cloud(frame, cameras, actual_frustum, render_voxel_m)
        if truth.is_empty:
            return None
        return pointssim_batch([(truth, shown(truth))], max_points=max_points)[0]


def _fate(tracer: Tracer, sequence: int, time_s: float, status: str) -> None:
    """Close a frame's root span with its fate: ``rendered`` (on screen
    one frame interval from ``time_s``, its render span), ``late``,
    ``skipped``, ``empty``, ... -- every scheme's replay speaks this
    vocabulary."""
    if status == "rendered":
        shown_until = time_s + FRAME_INTERVAL_S
        tracer.add_span(
            "render", "stage", sequence, time_s, shown_until,
            parent_id=tracer.frame_root(sequence),
        )
        time_s = shown_until
    tracer.close_frame(sequence, time_s, status=status)


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

    source: CachedFrameSource
    first: MultiViewFrame
    user_trace: PoseTrace
    bandwidth_trace: BandwidthTrace
    scaled_trace: BandwidthTrace
    scale: float
    duration_s: float
    tracer: Tracer


class _QualityLane:
    """PointSSIM on every Nth rendered frame (the paper's cadence).

    The one place a replay scores quality, and the one place work
    leaves the session thread: a due sample renders what the scheme
    showed on the session thread, then hands ground truth + PointSSIM
    to the lane's one scoring thread.  The hand-off is bounded: while
    one job runs and another waits behind it, :meth:`_submit` blocks on
    the oldest, so at most two jobs are in flight.  Scores come back
    through futures: an exception raised by a job is re-raised by
    :meth:`collect`, and :meth:`close` joins the thread with every
    submitted job finished.  The job gets its subsample bound as an
    argument and PointSSIM keeps nothing between calls, so overlapping
    runs cannot touch each other's scoring.
    """

    MAX_IN_FLIGHT = 2

    def __init__(self, session: "_SessionBase", replay: _Replay) -> None:
        self.config = session.config
        self.device = session.device
        self.replay = replay
        self.stage = Stage("quality", self._submit, replay.tracer, seq_fn=lambda args: args[2])
        self._counter = 0
        self._pending: list[tuple[FrameRecord, Future]] = []
        self.pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="pointssim")

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
        job = (
            frame,
            self.replay.source.rig.cameras,
            actual,
            RENDER_VOXEL_M,
            render(actual),
            self.config.quality_max_points,
            self.replay.tracer,
            self.stage.span,
        )
        in_flight = [future for _, future in self._pending if not future.done()]
        if len(in_flight) >= self.MAX_IN_FLIGHT:
            # One thread, first in first out: the oldest is the one running.
            wait(in_flight[:1])
        self._pending.append((record, self.pool.submit(_quality_job, *job)))

    def collect(self, final: bool) -> None:
        """Write finished scores onto their records; ``final`` blocks on
        everything still pending."""
        unresolved = []
        for record, future in self._pending:
            if not final and not future.done():
                unresolved.append((record, future))
                continue
            score = future.result()
            if score is not None:
                record.pssim_geometry = score.geometry
                record.pssim_color = score.color
        self._pending = unresolved

    def close(self) -> None:
        """Run everything already submitted, then join the thread."""
        self.pool.shutdown(wait=True)


class _SessionBase:
    """What the schemes' replays share: set-up, scoring and report (the
    baselines' replay loop is :mod:`repro.core.baselines`)."""

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
        source = CachedFrameSource.for_config(config, scene)
        first = source.capture(0)
        scale = config.trace_scale
        if scale is None:
            # From the raw frame size: see the module docstring.
            auto = max(first.raw_size_bytes() / PAPER_FRAME_SIZE_BYTES, 1e-6)
            scale = auto * CODEC_EFFICIENCY_COMPENSATION
        return _Replay(
            source=source,
            first=first,
            user_trace=user_trace,
            bandwidth_trace=bandwidth_trace,
            scaled_trace=bandwidth_trace.scaled(scale),
            scale=scale,
            duration_s=num_frames * FRAME_INTERVAL_S,
            tracer=Tracer(),
        )

    def _report(
        self,
        replay: _Replay,
        quality: _QualityLane,
        scheme: str,
        video_name: str,
        fps_target: float,
        frames: list[FrameRecord],
        stages: list[str],
        fault_events: list[FaultEvent] | None = None,
    ) -> SessionReport:
        """The finished report: the capture cache's counters, and the
        replay's trace, closed, with one instant per fault event, read
        for the timings of ``stages`` and the quality lane's, in order."""
        report = SessionReport(
            scheme=scheme,
            video=video_name,
            user_trace=replay.user_trace.name,
            network_trace=replay.bandwidth_trace.name,
            fps_target=fps_target,
            duration_s=replay.duration_s,
            frames=frames,
            mean_capacity_mbps=replay.scaled_trace.mean_mbps,
            trace_scale=replay.scale,
            fault_events=fault_events or [],
        )
        report.attach_cache_stats(
            {"capture_projection": replay.source.counters().to_dict()}
        )
        tracer = replay.tracer
        for event in report.fault_events:
            tracer.instant(
                f"fault:{event.category}",
                "fault",
                trace_id=event.sequence,
                time_s=event.time_s,
                attrs={"detail": event.detail},
            )
        tracer.finish(replay.duration_s + DRAIN_S)
        report.attach_trace(tracer, [*stages, quality.stage.name])
        return report


class _Call:
    """One two-party call in flight: the state the frame loop shares.

    :meth:`LiVoSession.run` drives it tick by tick -- :meth:`receive`
    resolves what arrived (decode + render-deadline accounting, feeding
    the stall watchdog), :meth:`send` runs the capture -> prepare ->
    encode stage graph and hands the pair to the channel as bytes -- so the
    receiver's outcomes of tick *t* (PLI flag, watchdog rung, color
    budget) steer tick *t*'s encode.  Frames resolve strictly in
    sequence order, so the decoder reference chains advance exactly as
    a live receiver's would.
    """

    def __init__(
        self,
        session: "LiVoSession",
        replay: _Replay,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        config = self.config = session.config
        self.session = session
        self.replay = replay
        tracer = self.tracer = replay.tracer
        cameras, scaled_trace = replay.source.rig.cameras, replay.scaled_trace
        resilience = config.resilience
        self.hardened = resilience.enabled
        self.injector = FaultInjector(fault_plan) if fault_plan is not None else None
        self.watchdog = (
            StallWatchdog()
            if resilience.enabled and resilience.ladder_enabled
            else None
        )
        self.sender = LiVoSender(cameras, config, session.device)
        self.receiver = LiVoReceiver(cameras, config)
        self.events: list[FaultEvent] = []
        self.boundary = StageFaultBoundary(self.injector, self.events)
        link = EmulatedLink(
            scaled_trace,
            config.link,
            fault_hook=self.injector.link_drop if self.injector is not None else None,
        )
        mean_capacity_bps = scaled_trace.mean_mbps * 1e6
        # Start GCC conservatively relative to the (scaled) link, as a
        # real session starts below capacity and probes upward.
        self.channel = WebRTCChannel(
            link,
            gcc_config=GCCConfig(
                initial_rate_bps=0.5 * mean_capacity_bps,
                min_rate_bps=0.05 * mean_capacity_bps,
                max_rate_bps=10.0 * mean_capacity_bps,
            ),
        )
        self.drain_time_s = replay.duration_s + DRAIN_S

        self.captures: dict[int, MultiViewFrame] = {}
        self.records: dict[int, FrameRecord] = {}
        # What the channel delivered, per frame and stream: the bytes
        # the receiver decodes and when their last packet arrived.
        self.pair_arrivals: dict[int, dict[int, FrameDelivery]] = {}
        self.pending: deque[int] = deque()
        self.rx_request_intra = False  # PLI-style request after a poisoned pair

        # Send side: one graph item per encoded tick.  The receive-side
        # decode stage is driven on delivery and takes a positional arg
        # tuple with the frame sequence riding at index 2.
        self.graph = StageGraph(
            [
                Stage("capture", self._capture, tracer),
                Stage("prepare", self._prepare, tracer),
                Stage("encode", self._encode, tracer),
            ]
        )
        self.decode_stage = Stage("decode", self._decode, tracer, seq_fn=lambda args: args[2])
        self.quality = _QualityLane(session, replay)

    # ------------------------------------------------------------------
    # Stage bodies
    # ------------------------------------------------------------------

    def _capture(self, tick: _Tick) -> _Tick:
        frame = self.replay.source.capture(tick.sequence)
        tick.frame = self.boundary.apply_camera_faults(frame, tick.now)
        return tick

    def _prepare(self, tick: _Tick) -> _Tick:
        tick.prepared = self.sender.prepare(tick.frame, HORIZON_S)
        return tick

    def _encode(self, tick: _Tick) -> _Tick:
        tick.result = self.sender.encode(
            tick.prepared,
            tick.target_rate_bps,
            force_intra=tick.force_intra,
            fail_encode=self.boundary.encode_fails(tick.sequence),
            color_budget_scale=tick.color_budget_scale,
        )
        return tick

    def _decode(self, args):
        color, depth, sequence, now = args
        color = self.boundary.corrupt_delivered_pair(color, sequence, now)
        if self.hardened:
            return self.receiver.decode_pair_safe(color, depth)
        color_frame, depth_frame = EncodedFrame.from_bytes(color), EncodedFrame.from_bytes(depth)
        if self.receiver.can_decode(color_frame, depth_frame):
            return self.receiver.decode_pair(color_frame, depth_frame)
        return None

    # ------------------------------------------------------------------
    # Bookkeeping shared by both sides
    # ------------------------------------------------------------------

    def _event(self, now: float, category: str, detail: str, **fields) -> None:
        self.events.append(
            FaultEvent(time_s=now, category=category, detail=detail, **fields)
        )

    def _observe_deadline(self, on_time: bool, now: float) -> None:
        """Feed the watchdog; record ladder transitions as events."""
        if self.watchdog is None:
            return
        new_level = self.watchdog.observe(on_time, now)
        if new_level is not None:
            self._event(
                now,
                "recover_step" if on_time else "degrade_step",
                f"ladder -> {level_name(new_level)}",
                recovered=on_time,
            )

    def _freeze(self, record: FrameRecord) -> bool:
        """Show the last good frame instead, when hardened and there is one."""
        record.frozen = self.hardened and self.receiver.freeze_frame() is not None
        return record.frozen

    def _prune(self, sequence: int) -> None:
        """Drop a resolved frame's buffered state (bounded memory)."""
        self.captures.pop(sequence, None)
        self.pair_arrivals.pop(sequence, None)
        self.channel.release_frame(sequence)

    # ------------------------------------------------------------------
    # Receive side
    # ------------------------------------------------------------------

    def receive(self, now: float, final: bool = False) -> None:
        """Take what the channel delivered by ``now``, resolve every
        head-of-line frame whose fate is known, collect finished scores."""
        self._ingest(self.channel.poll_deliveries(now))
        while self.pending and self.resolve_head(now, final):
            pass
        self.quality.collect(final)

    def drain(self) -> None:
        """Resolve every frame still in flight (``final`` leaves none
        behind), then wait for the scores still out on the scoring thread."""
        self.receive(self.drain_time_s, final=True)

    def _ingest(self, deliveries) -> None:
        for delivery in deliveries:
            sequence = delivery.frame_sequence
            self.pair_arrivals.setdefault(sequence, {})[delivery.stream_id] = delivery
            # One sim-clock transport span per delivered stream: send
            # tick to last-byte delivery (every sent frame has a record).
            self.tracer.add_span(
                "transport:color" if delivery.stream_id == 0 else "transport:depth",
                "transport",
                sequence,
                self.records[sequence].capture_time_s,
                delivery.completion_time_s,
                parent_id=self.tracer.frame_root(sequence),
            )

    def resolve_head(self, now: float, final: bool) -> bool:
        """Resolve the oldest in-flight frame if its fate is known.

        A frame resolves when its pair is fully delivered (decode +
        deadline check), when either stream was abandoned by the
        channel (freeze fallback), or unconditionally during the final
        drain.
        """
        sequence = self.pending[0]
        arrivals = self.pair_arrivals.get(sequence, {})
        if 0 in arrivals and 1 in arrivals:
            color, depth = arrivals[0], arrivals[1]
            pair = self.decode_stage((color.data, depth.data, sequence, now))
            if pair is not None:
                pair_time = max(color.completion_time_s, depth.completion_time_s)
                self._delivered(sequence, pair, pair_time, now)
            else:
                self._undecodable(sequence, now)
        else:
            abandoned = self.channel.frame_abandoned(
                0, sequence
            ) or self.channel.frame_abandoned(1, sequence)
            if not (abandoned or final):
                return False
            self._undelivered(sequence, abandoned, now)
        self.pending.popleft()
        self._prune(sequence)
        return True

    def _delivered(self, sequence: int, pair, pair_time: float, now: float) -> None:
        """A decodable pair: rendered if its playout point makes the
        deadline, late otherwise."""
        record = self.records[sequence]
        record.delivery_time_s = pair_time
        playout_time = pair_time + JITTER_TARGET_S
        deadline = record.capture_time_s + PLAYOUT_DELAY_S
        on_time = playout_time <= deadline + 1e-9
        if on_time:
            record.rendered = True
            record.stalled = False
            self._sample_quality(record, pair, sequence)
        self._observe_deadline(on_time, now)
        _fate(self.tracer, sequence, playout_time, "rendered" if on_time else "late")

    def _undecodable(self, sequence: int, now: float) -> None:
        """Freeze the last good frame and ask the sender for a keyframe
        (PLI semantics)."""
        record = self.records[sequence]
        if self.hardened:
            self.rx_request_intra = True
        if self._freeze(record):
            self._event(
                now, "frame_freeze", "undecodable pair; showing last good frame",
                sequence=sequence,
            )
        self._observe_deadline(False, now)
        _fate(self.tracer, sequence, now, "frozen" if record.frozen else "undecodable")

    def _undelivered(self, sequence: int, abandoned: bool, now: float) -> None:
        """Abandoned by the channel, or still in flight at the drain."""
        record = self.records[sequence]
        if abandoned:
            self._event(
                now, "frame_abandoned", "retransmissions exhausted; PLI raised",
                sequence=sequence,
            )
        self._freeze(record)
        self._observe_deadline(False, now)
        _fate(self.tracer, sequence, now, "frozen" if record.frozen else "undelivered")

    def _sample_quality(self, record: FrameRecord, pair, sequence: int) -> None:
        """Offer one rendered frame to the quality lane."""
        watchdog, receiver = self.watchdog, self.receiver

        def render(actual: Frustum):
            voxel_m = None
            if watchdog is not None and watchdog.voxel_scale() > 1.0:
                voxel_m = RENDER_VOXEL_M * watchdog.voxel_scale()
            shown = receiver.render_view(receiver.reconstruct(pair), actual, voxel_m)
            return lambda truth: shown

        self.quality.sample(record, self.captures[sequence], sequence, render)

    # ------------------------------------------------------------------
    # Send side
    # ------------------------------------------------------------------

    def send(self, sequence: int, now: float) -> None:
        """One capture tick: pose feedback, fault window edges, then the
        stage graph, unless the ladder skips the tick; what the encode
        produced decides the frame's record."""
        watchdog, channel = self.watchdog, self.channel
        lag = POSE_FEEDBACK_LAG_FRAMES
        if sequence >= lag:
            self.sender.observe_pose(
                self.replay.user_trace.pose_at_frame(sequence - lag),
                (sequence - lag) * FRAME_INTERVAL_S,
            )
        self.boundary.tick(now)
        self.tracer.open_frame(sequence, now)
        record = self.records[sequence] = FrameRecord(
            sequence=sequence,
            capture_time_s=now,
            rendered=False,
            stalled=False,
            degradation_level=watchdog.level if watchdog is not None else 0,
        )
        if watchdog is not None and watchdog.skips_tick(sequence):
            record.skipped = True
            _fate(self.tracer, sequence, now, "skipped")
            return
        force_intra = (
            channel.needs_keyframe(0)
            or channel.needs_keyframe(1)
            or self.rx_request_intra
        )
        tick = self.graph.run_item(
            _Tick(
                sequence=sequence,
                now=now,
                target_rate_bps=channel.target_rate_bps(),
                force_intra=force_intra,
                color_budget_scale=(
                    watchdog.color_budget_scale() if watchdog is not None else 1.0
                ),
            )
        )
        self.captures[sequence] = tick.frame
        result = tick.result
        if result is None:
            record.stalled = record.encode_failed = True
            self._event(
                now, "encode_failure",
                "encode failed; capture skipped, next frame INTRA",
                sequence=sequence,
            )
            self._observe_deadline(False, now)
            _fate(self.tracer, sequence, now, "encode_failed")
            return
        record.total_points = result.total_points
        if result.empty:
            # Degenerate capture: culling removed every visible point
            # (or no camera contributed one).  Nothing to send -- a
            # valid, skippable outcome, not a failure; the encoder
            # reference chains are untouched.
            record.empty = True
            _fate(self.tracer, sequence, now, "empty")
            return
        if force_intra:
            self.rx_request_intra = False
        # In flight: a stall until the receive side says otherwise.
        record.stalled = True
        record.wire_bytes = result.total_bytes
        record.split = result.split
        record.culled_points = result.culled_points
        channel.send_frame(0, sequence, result.color_frame.to_bytes(), now)
        channel.send_frame(1, sequence, result.depth_frame.to_bytes(), now)
        self.pending.append(sequence)

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------

    def report(self, video_name: str) -> SessionReport:
        """The finished call: frame records, sorted fault events, cache
        counters, the metrics registry and the trace."""
        events = self.events
        for stream_id, marker_sequence in self.channel.marker_frames:
            self._event(
                marker_sequence * FRAME_INTERVAL_S,
                "zero_byte_frame",
                f"stream {stream_id} frame culled to zero bytes; marker sent",
                sequence=marker_sequence,
            )
        events.sort(key=lambda event: event.time_s)
        report = self.session._report(
            self.replay,
            self.quality,
            self.config.scheme,
            video_name,
            FPS,
            list(self.records.values()),
            [stage.name for stage in (*self.graph.stages, self.decode_stage)],
            fault_events=events,
        )
        report.attach_metrics(self._metrics())
        return report

    def _metrics(self) -> MetricsRegistry:
        """The call's telemetry no other record holds (stage times are
        the trace's, fault counts and cache tallies the report's), built
        from already-collected aggregates."""
        registry = MetricsRegistry()
        self.channel.metrics_into(registry)
        if self.injector is not None:
            self.injector.metrics_into(registry)
        if self.watchdog is not None:
            # Close the time-per-rung accounting where the drain
            # observed its last deadlines.
            self.watchdog.finalize(self.drain_time_s)
            self.watchdog.metrics_into(registry)
        return registry


class LiVoSession(_SessionBase):
    """LiVo / LiVo-NoCull / LiVo-NoAdapt replay: ``config.scheme`` names
    the variant (a baseline's name is a ``ValueError``; :func:`run_scheme`
    runs any scheme).

    The replay interleaves the sender and receiver on one simulated
    clock, a receive then a send per capture tick (:class:`_Call`).

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
        fault_plan: FaultPlan | None = None,
    ) -> SessionReport:
        """Replay ``num_frames`` captures through the full pipeline.

        The report's trace holds one sim-clock root span per capture
        tick with stage, worker, transport and render spans beneath it;
        the spans never steer the replay.
        """
        config = self.config
        if config.scheme not in LIVO_SCHEMES:
            raise ValueError(
                f"{config.scheme} is not a LiVo scheme ({', '.join(LIVO_SCHEMES)}); "
                "run_scheme replays it"
            )
        replay = self._open(scene, user_trace, bandwidth_trace, num_frames)
        call = _Call(self, replay, fault_plan)
        try:
            for sequence in range(num_frames):
                now = sequence * FRAME_INTERVAL_S
                call.receive(now)
                call.send(sequence, now)
            call.drain()
        finally:
            call.quality.close()
        return call.report(video_name)


def run_scheme(
    config: SessionConfig,
    scene: Scene,
    user_trace: PoseTrace,
    bandwidth_trace: BandwidthTrace,
    num_frames: int,
    video_name: str = "video",
) -> SessionReport:
    """Replay ``num_frames`` capture ticks through the scheme
    ``config.scheme`` names, and return its report."""
    replay = LiVoSession
    if config.scheme not in LIVO_SCHEMES:
        from repro.core.baselines import REPLAYS

        replay = REPLAYS[config.scheme]
    return replay(config).run(scene, user_trace, bandwidth_trace, num_frames, video_name)
