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
With ``config.jobs > 1`` an executor fans the per-camera rendering and
the quality scoring out across worker processes and hosts the two
video encoders in dedicated stateful workers; at ``jobs == 1`` the
serial executor reproduces the reference schedule byte-identically.

Bandwidth scaling: our frames are resolution-reduced, so traces are
scaled by the raw-frame-size ratio (``trace_scale``), keeping the
compression pressure -- raw rate over capacity -- equivalent to the
paper's full-resolution setting.  All throughput/utilization ratios are
scale-invariant; reports also expose paper-equivalent absolute numbers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.capture.rgbd import MultiViewFrame, RGBDFrame
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
from repro.metrics.pointssim import pointssim, pointssim_batch
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.perf.capture import CachedFrameSource
from repro.perf.features import FeatureCache
from repro.perf.shmframes import (
    ShmCloudHandle,
    ShmFrameHandle,
    ShmPairHandle,
    load_cloud,
    load_multiview,
    load_pair,
    share_multiview,
    share_pair,
)
from repro.prediction.pose import PoseTrace
from repro.prediction.predictor import ViewingDevice
from repro.runtime.executors import Executor, make_executor
from repro.runtime.profile import merge_timings
from repro.runtime.shm import attach_array
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


# ----------------------------------------------------------------------
# Executor fan-out helpers.
#
# Worker processes are forked, so they inherit this module-level context
# by memory -- the scene and cameras never cross a pipe.  It is set
# right before the executor's first use; per-task arguments carry only
# the small varying state (camera chunk, sequence).
# ----------------------------------------------------------------------

_CAPTURE_CTX: dict = {}

# Quality-scoring context, same fork-inheritance pattern: the feature
# cache and subsample knobs are process-local (each worker grows its own
# cache; DESIGN.md section 9).
_QUALITY_CTX: dict = {}

# Zero-copy lane: quality jobs are parked and submitted in bursts at
# idle/drain points so worker renders never compete with capture for
# pool slots mid-tick.  The bound caps how many shared frame/pair
# segments a burst can pin at once.
_QUALITY_DEFER_MAX = 16


def _capture_chunk(task: tuple) -> list:
    """Render a contiguous chunk of cameras for one capture tick.

    Runs inside a worker, through the
    :class:`~repro.perf.capture.CachedFrameSource` in the context:
    batch sampling is deterministic in the timestamp, so every worker
    sees the same surface points, and each worker's inherited source
    warms its own projection caches, deterministically, so the fan-out
    stays byte-identical to the serial path.

    A three-element task carries shared-memory refs
    ``(depth_refs, color_refs)`` aligned with the camera indices: the
    rendered arrays are written into the shared segment in place and
    only the camera ids cross back over the pipe (the parent views the
    same pages -- zero result pickling).
    """
    camera_indices, sequence = task[0], task[1]
    refs = task[2] if len(task) > 2 else None
    views = _CAPTURE_CTX["source"].capture_views(list(camera_indices), sequence)
    if refs is None:
        return views
    depth_refs, color_refs = refs
    for view, depth_ref, color_ref in zip(views, depth_refs, color_refs):
        attach_array(depth_ref)[...] = view.depth_mm
        attach_array(color_ref)[...] = view.color
    return [view.camera_id for view in views]


def _chunk_indices(count: int, chunks: int) -> list[list[int]]:
    """Split ``range(count)`` into ``chunks`` contiguous, ordered runs."""
    chunks = max(1, min(chunks, count))
    size, extra = divmod(count, chunks)
    out, start = [], 0
    for index in range(chunks):
        end = start + size + (1 if index < extra else 0)
        out.append(list(range(start, end)))
        start = end
    return out


def _capture_frame(
    rig: CaptureRig,
    sequence: int,
    executor: Executor,
    source: CachedFrameSource,
) -> MultiViewFrame:
    """One synchronized multi-view capture, fanned out when parallel.

    The per-camera splats are independent and deterministic, so the
    fan-out is byte-identical to ``source.capture`` -- chunks are
    contiguous and reassembled in camera order.  ``source`` must also
    be in ``_CAPTURE_CTX`` for the parallel branch.
    """
    if not executor.parallel:
        return source.capture(sequence)
    timestamp = sequence * rig.frame_interval_s
    chunk_lists = _chunk_indices(rig.num_cameras, executor.jobs)
    arena = executor.arena
    if arena is None:
        tasks = [(chunk, sequence) for chunk in chunk_lists]
        chunks = executor.map(_capture_chunk, tasks)
        views = [view for chunk in chunks for view in chunk]
        return MultiViewFrame(views, sequence=sequence, timestamp_s=timestamp)
    # Zero-copy lane: preallocate one shared segment per chunk (depth +
    # color for every camera in it); workers render straight into the
    # shared pages and return only camera ids.  The frame's views alias
    # the segments, so ``shm_refs`` (one release token per segment) is
    # attached for the caller to release once the frame is pruned.
    tasks = []
    group_refs = []
    for chunk in chunk_lists:
        shapes = [
            ((rig.cameras[index].intrinsics.height, rig.cameras[index].intrinsics.width), np.uint16)
            for index in chunk
        ] + [
            ((rig.cameras[index].intrinsics.height, rig.cameras[index].intrinsics.width, 3), np.uint8)
            for index in chunk
        ]
        refs, _ = arena.allocate(shapes)
        depth_refs = tuple(refs[: len(chunk)])
        color_refs = tuple(refs[len(chunk) :])
        tasks.append((chunk, sequence, (depth_refs, color_refs)))
        group_refs.append(refs[0])
    metas = executor.map(_capture_chunk, tasks)
    views = []
    view_refs = []
    for task, camera_ids in zip(tasks, metas):
        depth_refs, color_refs = task[2]
        for camera_id, depth_ref, color_ref in zip(camera_ids, depth_refs, color_refs):
            views.append(
                RGBDFrame(
                    arena.view(color_ref),
                    arena.view(depth_ref),
                    camera_id=camera_id,
                    sequence=sequence,
                    timestamp_s=timestamp,
                )
            )
            view_refs.append((depth_ref, color_ref))
    frame = MultiViewFrame(views, sequence=sequence, timestamp_s=timestamp)
    frame.shm_refs = group_refs
    # Per-view refs let downstream sharers (the quality lane) alias the
    # capture segments instead of copying the frame into fresh ones.
    frame.shm_view_refs = view_refs
    return frame


def _render_shown_cloud(
    pair,
    cameras: list[RGBDCamera],
    actual_frustum: Frustum,
    voxel_m: float,
) -> PointCloud:
    """Receiver render prep as a pure function: reconstruct + cull.

    Mirrors :meth:`~repro.core.receiver.LiVoReceiver.reconstruct`
    followed by :meth:`~repro.core.receiver.LiVoReceiver.render_view`
    exactly (same kernels, same order), so a worker rendering from a
    shipped :class:`~repro.perf.shmframes.ShmPairHandle` produces the
    byte-identical cloud the parent would have rendered inline.
    """
    cloud = unproject_views(cameras, pair.depth_tiles_mm, pair.color_tiles)
    if cloud.is_empty:
        return cloud
    voxelized = voxel_downsample(cloud, voxel_m)
    return voxelized.select(actual_frustum.contains(voxelized.positions))


def _quality_job(
    frame: MultiViewFrame,
    cameras: list[RGBDCamera],
    actual_frustum: Frustum,
    render_voxel_m: float,
    shown: PointCloud,
    obs_ctx=None,
    shown_voxel_m: float | None = None,
):
    """Pure quality-scoring job: build the ground truth, score the shown
    cloud against it.  No session state touched, so it can run in any
    worker; the score is None when the truth is empty (nothing to
    score).  The feature cache / subsample knobs come from
    ``_QUALITY_CTX`` (process-local, fork-inherited like
    ``_CAPTURE_CTX``).

    Returns ``(score, spans)``: with ``obs_ctx`` (a
    :class:`repro.obs.span.TraceContext`) set, the scoring runs inside
    a worker-local span shipped back for the session tracer to absorb;
    otherwise ``spans`` is None.

    ``frame`` and ``shown`` may arrive as shared-memory handles
    (:class:`~repro.perf.shmframes.ShmFrameHandle`,
    :class:`~repro.perf.shmframes.ShmCloudHandle`, or a
    :class:`~repro.perf.shmframes.ShmPairHandle` of decoded tiles):
    the worker attaches and views the shared pages in place, so only
    the ~100-byte handles ever crossed the pipe.  A pair handle means
    the parent skipped render prep entirely -- the worker reconstructs
    and culls the shown cloud itself (``shown_voxel_m`` carries the
    degradation ladder's effective render voxel), taking that work off
    the session's critical path.
    """
    if isinstance(frame, ShmFrameHandle):
        frame = load_multiview(frame)
    if isinstance(shown, ShmCloudHandle):
        shown = load_cloud(shown)

    def compute():
        local_shown = shown
        if isinstance(local_shown, ShmPairHandle):
            local_shown = _render_shown_cloud(
                load_pair(local_shown),
                cameras,
                actual_frustum,
                shown_voxel_m or render_voxel_m,
            )
        truth = ground_truth_cloud(frame, cameras, actual_frustum, render_voxel_m)
        if truth.is_empty:
            return None
        return pointssim_batch(
            [(truth, local_shown)],
            cache=_QUALITY_CTX["cache"],
            max_points=_QUALITY_CTX["max_points"],
        )[0]

    if obs_ctx is None:
        return compute(), None
    from repro.obs.tracer import worker_tracer

    tracer = worker_tracer()
    with tracer.span(
        "quality:pointssim",
        category="worker",
        trace_id=obs_ctx.trace_id,
        parent_id=obs_ctx.span_id,
    ):
        score = compute()
    return score, tracer.spans()


def _release_frame_shm(executor: Executor, frame) -> None:
    """Release the shared segments backing a frame's views, if any."""
    arena = executor.arena
    if arena is None or frame is None:
        return
    for ref in getattr(frame, "shm_refs", ()):
        arena.release(ref)


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


class _SessionBase:
    """Shared rig construction, trace scaling, and runtime plumbing."""

    def __init__(self, config: SessionConfig | None = None) -> None:
        self.config = config or SessionConfig()
        self.device = ViewingDevice()

    def _make_rig(self) -> CaptureRig:
        config = self.config
        return default_rig(
            num_cameras=config.num_cameras,
            width=config.camera_width,
            height=config.camera_height,
            fps=config.fps,
        )

    def _make_executor(self, on_crash=None) -> Executor:
        """The executor this session's config asked for."""
        return make_executor(
            jobs=self.config.jobs, kind=self.config.executor, on_crash=on_crash
        )

    def _attach_caches(self, source: CachedFrameSource) -> FeatureCache:
        """Publish capture/quality cache context for this run's workers."""
        _CAPTURE_CTX["source"] = source
        cache = FeatureCache()
        _QUALITY_CTX["cache"] = cache
        _QUALITY_CTX["max_points"] = self.config.quality_max_points
        return cache

    def _attach_report_caches(
        self,
        report: SessionReport,
        source: CachedFrameSource,
        quality_cache: FeatureCache,
    ) -> None:
        """Attach capture/quality cache counters to a finished report."""
        report.attach_cache_stats(
            {
                "capture_projection": source.counters().to_dict(),
                "quality_features": quality_cache.counters.to_dict(),
            }
        )

    def _scaled_trace(
        self, trace: BandwidthTrace, first_frame: MultiViewFrame
    ) -> tuple[BandwidthTrace, float]:
        if self.config.trace_scale is not None:
            scale = self.config.trace_scale
        else:
            scale = (
                _auto_trace_scale(first_frame)
                * self.config.codec_efficiency_compensation
            )
        return trace.scaled(scale), scale


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
        if num_frames <= 0:
            raise ValueError("num_frames must be positive")
        config = self.config
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
        rig = self._make_rig()
        sender = LiVoSender(rig.cameras, config, self.device, receiver_id=receiver_id)
        receiver = LiVoReceiver(rig.cameras, config, receiver_id=receiver_id)
        events: list[FaultEvent] = []
        boundary = StageFaultBoundary(injector, events)

        source = CachedFrameSource(rig, scene)
        first = source.capture(0)
        scaled_trace, scale = self._scaled_trace(bandwidth_trace, first)
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
        duration = num_frames * interval

        # The executor fans out per-camera capture + quality scoring and
        # hosts the two encoders in dedicated workers when parallel.
        executor = self._make_executor()
        quality_cache = self._attach_caches(source)
        sender.attach_executor(executor)
        if tracer is not None:
            # After attach_executor: the encoder handles it installs are
            # the ones whose worker spans must flow back.
            sender.attach_tracer(tracer)

        captures: dict[int, MultiViewFrame] = {}
        encoded: dict[int, tuple] = {}
        records: dict[int, FrameRecord] = {}
        pair_arrivals: dict[int, dict[int, float]] = {}
        pending: deque[int] = deque()
        # (record, future, shm refs to release once the future resolves)
        quality_pending: list[tuple[FrameRecord, object, tuple]] = []
        # Zero-copy lane: parked (record, submit args, shm refs) quality
        # jobs awaiting an idle/drain submission point.
        quality_deferred: list[tuple[FrameRecord, tuple, tuple]] = []
        # sequence -> release tokens for the shared segments backing that
        # capture's views (zero-copy lane only).
        capture_shm: dict[int, list] = {}
        quality_counter = 0
        rx_request_intra = False  # PLI-style request after a poisoned pair

        # ------------------------------------------------------------------
        # Send-side stage graph: capture -> prepare -> encode.  Camera
        # faults attach at the capture stage's exit boundary.
        # ------------------------------------------------------------------

        def do_capture(tick: _Tick) -> _Tick:
            tick.frame = (
                first
                if tick.sequence == 0
                else _capture_frame(rig, tick.sequence, executor, source)
            )
            # Record the release tokens here, before the camera-fault
            # hook may swap the frame object (and its attribute) out.
            refs = getattr(tick.frame, "shm_refs", None)
            if refs:
                capture_shm[tick.sequence] = refs
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

        def do_quality(args):
            record, pair, now_sequence = args
            actual = self.device.frustum_for(user_trace.pose_at_frame(now_sequence))
            voxel_m = None
            if watchdog is not None and watchdog.voxel_scale() > 1.0:
                voxel_m = config.render_voxel_m * watchdog.voxel_scale()
            frame_payload = captures[now_sequence]
            cleanup: tuple = ()
            obs_ctx = tracer.current_context() if tracer is not None else None
            if executor.arena is not None:
                # Zero-copy lane: the frame aliases its capture
                # segments and the *decoded pair* (not a rendered
                # cloud) crosses as ~100-byte handles -- the worker
                # reconstructs and culls the shown view itself, so
                # render prep leaves the session's critical path
                # entirely.  Scoring is telemetry, not playout, so the
                # job is parked (bounded) and submitted at idle/drain
                # points rather than competing with capture for
                # workers mid-tick.  Segments are released when the
                # future's result has been collected.
                frame_handle = share_multiview(executor.arena, frame_payload)
                pair_handle = share_pair(executor.arena, pair)
                cleanup = frame_handle.segment_refs + pair_handle.segment_refs
                args = (
                    _quality_job,
                    frame_handle,
                    rig.cameras,
                    actual,
                    config.render_voxel_m,
                    pair_handle,
                    obs_ctx,
                    voxel_m,
                )
                quality_deferred.append((record, args, cleanup))
                if len(quality_deferred) >= _QUALITY_DEFER_MAX:
                    flush_quality()
                return
            shown = receiver.render_view(
                receiver.reconstruct(pair), actual, voxel_m
            )
            future = executor.submit(
                _quality_job,
                frame_payload,
                rig.cameras,
                actual,
                config.render_voxel_m,
                shown,
                obs_ctx,
            )
            quality_pending.append((record, future, cleanup))

        def flush_quality() -> None:
            """Submit every parked quality job to the worker pool."""
            for record, args, cleanup in quality_deferred:
                quality_pending.append((record, executor.submit(*args), cleanup))
            quality_deferred.clear()

        decode_stage = Stage("decode", do_decode)
        quality_stage = Stage("quality", do_quality)
        if tracer is not None:
            # Both receive stages take positional arg tuples with the
            # frame sequence riding at index 2.
            decode_stage.attach_tracer(tracer, seq_fn=lambda args: args[2])
            quality_stage.attach_tracer(tracer, seq_fn=lambda args: args[2])

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

        def sample_quality(record: FrameRecord, pair, now_sequence: int) -> None:
            """PointSSIM every Nth rendered frame (paper's cadence)."""
            nonlocal quality_counter
            quality_counter += 1
            if (quality_counter - 1) % config.quality_every != 0:
                return
            quality_stage((record, pair, now_sequence))

        def prune(sequence: int) -> None:
            """Drop a resolved frame's buffered state (bounded memory)."""
            captures.pop(sequence, None)
            encoded.pop(sequence, None)
            pair_arrivals.pop(sequence, None)
            channel.release_frame(sequence)
            if executor.arena is not None:
                for ref in capture_shm.pop(sequence, ()):
                    executor.arena.release(ref)

        def collect_quality(final: bool) -> None:
            """Absorb finished quality futures; release their segments.

            Runs every tick so in-flight shared segments stay bounded by
            the number of genuinely unresolved jobs; ``final`` submits
            the parked jobs and blocks on everything still pending.
            """
            if final and quality_deferred:
                flush_quality()
            if not quality_pending:
                return
            unresolved = []
            for record, future, cleanup in quality_pending:
                if not final and not future.done():
                    unresolved.append((record, future, cleanup))
                    continue
                score, shipped_spans = future.result()
                if shipped_spans and tracer is not None:
                    tracer.absorb(shipped_spans)
                if score is not None:
                    record.pssim_geometry = score.geometry
                    record.pssim_color = score.color
                if executor.arena is not None:
                    for ref in cleanup:
                        executor.arena.release(ref)
            quality_pending[:] = unresolved

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
        try:
            for sequence in range(num_frames):
                now = sequence * interval
                ingest(channel.poll_deliveries(now))
                while pending and resolve_head(now, final=False):
                    pass
                collect_quality(final=False)
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

            # Collect deferred quality scores (computed in workers when
            # parallel; already resolved when serial).
            collect_quality(final=True)
        finally:
            if executor.arena is not None:
                # Frames that never resolved (skipped/empty/encode-failed
                # sequences, or an aborted run) still hold segments;
                # release them before close() so they don't count as
                # lifecycle leaks.
                for _, _, cleanup in quality_pending:
                    for ref in cleanup:
                        executor.arena.release(ref)
                for _, _, cleanup in quality_deferred:
                    for ref in cleanup:
                        executor.arena.release(ref)
                for refs in capture_shm.values():
                    for ref in refs:
                        executor.arena.release(ref)
                capture_shm.clear()
            sender.close()
            executor.close()

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

        report = SessionReport(
            scheme=scheme_name,
            video=video_name,
            user_trace=user_trace.name,
            network_trace=bandwidth_trace.name,
            fps_target=config.fps,
            duration_s=duration,
            frames=[records[sequence] for sequence in range(num_frames)],
            mean_capacity_mbps=scaled_trace.stats().mean,
            trace_scale=scale,
            fault_events=events,
        )
        report.attach_stage_timings(
            merge_timings(
                graph.timings(),
                {s.name: s.timing for s in (decode_stage, quality_stage)},
            )
        )
        report.attach_cache_stats(
            {
                "codec_scratch": sender.cache_counters().to_dict(),
                "capture_projection": source.counters().to_dict(),
                "quality_features": quality_cache.counters.to_dict(),
                "transport_batch": channel.batch_counters.to_dict(),
            }
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
        # Executor health: crash events, items transparently redone
        # in-process after a pool break, and the shm arena's lifecycle
        # (the executor is closed by now, so these are final values).
        registry.counter("executor.crashes").inc(executor.crashes)
        registry.counter("executor.recomputed").inc(executor.recomputed)
        if executor.arena is not None:
            registry.counter("shm.segments_created").inc(executor.arena.created)
            registry.counter("shm.segments_freed").inc(executor.arena.freed)
            registry.counter("shm.segments_recycled").inc(executor.arena.recycled)
            registry.counter("shm.bytes_shared").inc(executor.arena.bytes_shared)
            registry.counter("shm.segments_leaked").inc(executor.shm_leaked)
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
        if num_frames <= 0:
            raise ValueError("num_frames must be positive")
        config = self.config
        rig = self._make_rig()
        source = CachedFrameSource(rig, scene)
        first = source.capture(0)
        scaled_trace, scale = self._scaled_trace(bandwidth_trace, first)

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

        executor = self._make_executor()
        quality_cache = self._attach_caches(source)

        capture_stage = Stage(
            "capture",
            lambda seq: first
            if seq == 0
            else _capture_frame(rig, seq, executor, source),
        )
        cull_stage = Stage("cull", lambda args: culled_cloud(*args))
        encode_stage = Stage(
            "encode",
            lambda args: oracle.encode_frame(args[0], args[1])
            if not args[0].is_empty
            else None,
        )
        quality_stage = Stage("quality", lambda fn: fn())

        records = []
        quality_counter = 0
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
                        quality_counter += 1
                        if (quality_counter - 1) % config.quality_every == 0:

                            def score_frame(
                                frame=frame, encoded=encoded, sequence=sequence,
                                record=record,
                            ):
                                actual = self.device.frustum_for(
                                    user_trace.pose_at_frame(sequence)
                                )
                                decoded = DracoCodec.decode(encoded)
                                shown = voxel_downsample(decoded, config.render_voxel_m)
                                shown = shown.select(actual.contains(shown.positions))
                                truth = ground_truth_cloud(
                                    frame, rig.cameras, actual, config.render_voxel_m
                                )
                                if not truth.is_empty:
                                    score = pointssim(
                                        truth,
                                        shown,
                                        cache=quality_cache,
                                        max_points=config.quality_max_points,
                                    )
                                    record.pssim_geometry = score.geometry
                                    record.pssim_color = score.color

                            quality_stage(score_frame)
                records.append(record)
                _release_frame_shm(executor, frame)
        finally:
            executor.close()

        duration = num_frames * config.frame_interval_s
        report = SessionReport(
            scheme="Draco-Oracle",
            video=video_name,
            user_trace=user_trace.name,
            network_trace=bandwidth_trace.name,
            fps_target=oracle_fps,
            duration_s=duration,
            frames=records,
            mean_capacity_mbps=scaled_trace.stats().mean,
            trace_scale=scale,
        )
        report.attach_stage_timings(
            {
                s.name: s.timing
                for s in (capture_stage, cull_stage, encode_stage, quality_stage)
            }
        )
        self._attach_report_caches(report, source, quality_cache)
        return report


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
        if num_frames <= 0:
            raise ValueError("num_frames must be positive")
        config = self.config
        rig = self._make_rig()
        source = CachedFrameSource(rig, scene)
        first = source.capture(0)
        scaled_trace, scale = self._scaled_trace(bandwidth_trace, first)

        profile = MeshReduceProfile.build([first], rig.cameras)
        voxel = profile.select_voxel(
            scaled_trace.stats().mean * 1e6, fps=15.0, conservativeness=conservativeness
        )
        stream = ReliableByteStream(scaled_trace, config.link.propagation_delay_s)
        pipeline = MeshReducePipeline(rig.cameras, stream, voxel)

        executor = self._make_executor()
        quality_cache = self._attach_caches(source)

        capture_stage = Stage(
            "capture",
            lambda seq: first
            if seq == 0
            else _capture_frame(rig, seq, executor, source),
        )
        compress_stage = Stage(
            "compress", lambda args: pipeline.offer_frame(args[0], args[1])
        )
        quality_stage = Stage("quality", lambda fn: fn())

        records = []
        quality_counter = 0
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
                    quality_counter += 1
                    if (quality_counter - 1) % config.quality_every == 0:

                        def score_frame(
                            frame=frame, result=result, sequence=sequence,
                            record=record,
                        ):
                            actual = self.device.frustum_for(
                                user_trace.pose_at_frame(sequence)
                            )
                            truth = ground_truth_cloud(
                                frame, rig.cameras, actual, config.render_voxel_m
                            )
                            if not truth.is_empty:
                                sampled = pipeline.reconstruct(
                                    result.mesh, max(2 * len(truth), 1000), seed=sequence
                                )
                                shown = sampled.select(
                                    actual.contains(sampled.positions)
                                )
                                score = pointssim(
                                    truth,
                                    shown,
                                    cache=quality_cache,
                                    max_points=config.quality_max_points,
                                )
                                record.pssim_geometry = score.geometry
                                record.pssim_color = score.color

                        quality_stage(score_frame)
                records.append(record)
                _release_frame_shm(executor, frame)
        finally:
            executor.close()

        duration = num_frames * config.frame_interval_s
        report = SessionReport(
            scheme="MeshReduce",
            video=video_name,
            user_trace=user_trace.name,
            network_trace=bandwidth_trace.name,
            fps_target=15.0,
            duration_s=duration,
            frames=records,
            mean_capacity_mbps=scaled_trace.stats().mean,
            trace_scale=scale,
        )
        report.attach_stage_timings(
            {
                s.name: s.timing
                for s in (capture_stage, compress_stage, quality_stage)
            }
        )
        self._attach_report_caches(report, source, quality_cache)
        return report
