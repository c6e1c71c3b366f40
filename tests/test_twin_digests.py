"""The single path per kernel reproduces what its deleted twin produced.

One parametrised test over the workloads named in
``tests/goldens/twin_digests.json`` (see :mod:`tests.twins` for how the
file was made): three two-party sessions, the two baseline replays,
one churned fleet, one service tick pool.  The narrower pins (channel,
codec, SFU node) live next to the behaviour they cover, in the test
files that used to run both twins.
"""

import dataclasses
import functools
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro
import repro.capture
import repro.perf
import repro.prediction.culling
import repro.runtime
import repro.sfu
from repro import cli, viz
from repro.analysis import tracetools
from repro.analysis.tables import format_table
from repro.capture import renderer
from repro.capture.dataset import load_video
from repro.capture.renderer import ProjectionCache
from repro.capture.rig import CaptureRig, default_rig
from repro.capture.scene import Person, SampleBatch, Scene, make_scene
from repro.codec import blocks, entropy
from repro.codec.motion import gather_prediction
from repro.codec.rate_control import RateController
from repro.codec.video import VideoCodecConfig, VideoDecoder, VideoEncoder, _CodecCore
from repro.compression import vpcc
from repro.compression.mesh import mesh_from_views
from repro.compression.meshreduce import MeshReducePipeline, encode_mesh
from repro.compression.oracle import DracoOracle
from repro.core import bandwidth_split, multiway, schemes
from repro.core import config as config_module
from repro.core import session as session_module
from repro.core.config import SessionConfig
from repro.core.receiver import LiVoReceiver
from repro.core.sender import LiVoSender
from repro.core.baselines import DracoOracleSession, MeshReduceSession
from repro.core.session import LiVoSession, _Call, _QualityLane
from repro.core.stats import SessionReport
from repro.depthcodec import packing, scaling
from repro.depthcodec.streams import ScaledY16DepthStream
from repro.faults.plan import (
    BurstLossWindow,
    EncoderFault,
    FaultPlan,
    FrameCorruption,
    LinkOutage,
)
from repro.geometry import camera as camera_module
from repro.geometry import frustum as frustum_module
from repro.geometry.camera import RGBDCamera
from repro.geometry.pointcloud import PointCloud
from repro.geometry.transforms import look_at
from repro.metrics import image
from repro.metrics.mos import MOSModel
from repro.metrics import pointssim as pointssim_module
from repro.obs import span as span_module
from repro.obs import tracer as tracer_module
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracer import Tracer
from repro.perf import scratch
from repro.perf.capture import CachedFrameSource
from repro.perf.counters import BatchCounters
from repro.prediction.kalman import ConstantVelocityKalman, PoseKalmanPredictor
from repro.prediction.mlp import MLPPosePredictor
from repro.prediction.pose import synthetic_user_trace, user_traces_for_video
from repro.prediction.predictor import FrustumPredictor
from repro.runtime import batchplane
from repro.runtime.stage import Stage, StageGraph, StageTiming
from repro.scenario import recorder
from repro.service.app import ServiceApp, ServiceConfig
from repro.service.http import HttpServer
from repro.service.registry import SessionRegistry
from repro.service.workers import TickWorkerPool
from repro.sfu.conference import ConferenceDriver
from repro.sfu.fleet import FleetConfig, FleetResult, run_fleet
from repro.sfu.node import ForwardDecision, ReceiverState, SFUNode
from repro.transport import fec, link, rtp
from repro.transport import packet as packet_module
from repro.transport.channel import WebRTCChannel, WebRTCConfig
from repro.transport.downlink import DownlinkSend, DownlinkSet
from repro.transport.gcc import GoogleCongestionControl
from repro.transport.packet import Packet
from repro.transport.rtp import FrameAssembler
from repro.transport.link import EmulatedLink, LinkConfig
from repro.transport.tcp import ReliableByteStream
from repro.transport.traces import BandwidthTrace, trace_1, trace_2
from tests.twins import assert_pinned

SMALL = dict(
    num_cameras=4, camera_width=32, camera_height=24,
    scene_sample_budget=3000, gop_size=4, quality_every=2,
)


def _session_report(frames, fault_plan=None, **overrides):
    _, scene = load_video("office1", sample_budget=SMALL["scene_sample_budget"])
    user = user_traces_for_video("office1", frames + 10)[0]
    return LiVoSession(SessionConfig(**{**SMALL, **overrides})).run(
        scene, user, trace_1(duration_s=5), frames,
        video_name="office1", fault_plan=fault_plan,
    )


def _session(frames, fault_plan=None, **overrides):
    return _session_report(frames, fault_plan, **overrides).asdict()


def _registry_facts(metrics: dict) -> dict:
    # Every metric name with its value; a histogram (wall-clock samples)
    # contributes its name and observation count only.
    return {
        name: entry["count"] if entry["type"] == "histogram" else entry["value"]
        for name, entry in metrics.items()
    }


def _registry_session_faulted():
    plan = FaultPlan(
        seed=23,
        link_outages=(LinkOutage(0.2, 0.5),),
        encoder_faults=(EncoderFault(3),),
        corrupted_frames=(FrameCorruption(12),),
    )
    return _registry_facts(_session_report(30, fault_plan=plan).metrics.to_dict())


def _session_burst_loss_fec(monkeypatch):
    # FEC is a channel option no SessionConfig field reaches; hand the
    # session a channel class with it switched on.
    monkeypatch.setattr(
        session_module, "WebRTCChannel",
        functools.partial(WebRTCChannel, config=WebRTCConfig(fec_group_size=4)),
    )
    plan = FaultPlan(
        seed=23,
        link_outages=(LinkOutage(0.2, 0.3),),
        burst_loss=(
            BurstLossWindow(0.1, 0.3, p_enter=0.2, p_exit=0.2, loss_in_bad=0.9),
            BurstLossWindow(0.4, 0.6, p_enter=0.2, p_exit=0.2, loss_in_bad=0.9),
        ),
        encoder_faults=(EncoderFault(3),),
        corrupted_frames=(FrameCorruption(12),),
    )
    # Multi-packet frames over a 15 % lossy link: parity repairs, NACK
    # retransmissions and one abandoned frame all occur in 20 frames.
    return _session(
        20, fault_plan=plan, link=LinkConfig(loss_rate=0.15, seed=3),
        camera_width=48, camera_height=36,
    )


def _baseline(session_cls):
    # A baseline replay at jobs 1 and 2: the report, its stage names with
    # their sample counts (in order) and its cache-stat keys.  Pinned at
    # 602d350, from the two separate loops the shared one replaced.
    _, scene = load_video("office1", sample_budget=SMALL["scene_sample_budget"])
    user = user_traces_for_video("office1", 22)[0]
    pinned = []
    for jobs in (1, 2):
        report = session_cls(SessionConfig(**SMALL, scheme=session_cls.SCHEME, jobs=jobs)).run(
            scene, user, trace_1(duration_s=5), 12, video_name="office1"
        )
        pinned.append({
            "report": report.asdict(),
            "stages": [(name, t.count) for name, t in report.stage_timings.items()],
            "cache_stats": list(report.cache_stats),
        })
    return pinned


def _tick_pool():
    app = ServiceApp(ServiceConfig(seed=0))
    try:
        records = [
            app.registry.create(receivers=2 + index % 2, scheme=scheme)
            for index, scheme in enumerate(("livo-1m", "livo-2m", "livo-4m", "livo-2m"))
        ]
        for _ in range(10):
            assert app.pool.run_round() == len(records)
        return [record.driver.digest.hexdigest() for record in records]
    finally:
        app.close()


@functools.lru_cache(maxsize=None)
def _fleet_6x12():
    return run_fleet(FleetConfig(sessions=6, frames=12, seed=0))


WORKLOADS = {
    "session:clean": lambda monkeypatch: _session(8),
    "session:burst_loss_fec": _session_burst_loss_fec,
    # Recorded from the fork pool; threads are the one substrate left.
    "session:process_jobs2": lambda monkeypatch: _session(5, executor="thread", jobs=2),
    "session:draco_oracle": lambda monkeypatch: _baseline(DracoOracleSession),
    "session:meshreduce": lambda monkeypatch: _baseline(MeshReduceSession),
    "fleet:6x12": lambda monkeypatch: _fleet_6x12().fleet_digest,
    "tick_pool:4x10": lambda monkeypatch: _tick_pool(),
    # Recorded through the registry's absorb_* shims; the producers'
    # metrics_into must write the same names and values.
    "registry:session_faulted": lambda monkeypatch: _registry_session_faulted(),
    "registry:fleet_6x12": lambda monkeypatch: _registry_facts(
        _fleet_6x12().sfu_metrics
    ),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_single_path_reproduces_deleted_twin(name, monkeypatch, oracle_transform):
    assert_pinned(name, WORKLOADS[name](monkeypatch))


@pytest.mark.parametrize("cohort", [1, 2, 4])
def test_cohort_boundaries_reproduce_the_fleet_pins(cohort, monkeypatch, oracle_transform):
    # Every pinned fleet fits one default cohort; these sizes split it.
    monkeypatch.setattr(batchplane, "LOCKSTEP_COHORT", cohort)
    fleet = run_fleet(FleetConfig(sessions=6, frames=12, seed=0))
    assert_pinned("fleet:6x12", fleet.fleet_digest)
    assert_pinned("registry:fleet_6x12", _registry_facts(fleet.sfu_metrics))
    assert_pinned("tick_pool:4x10", _tick_pool())


# ----------------------------------------------------------------------
# The options stay gone
# ----------------------------------------------------------------------

REMOVED_OPTIONS = {
    "kernel_cache", "batch_kernels", "shm", "batch_plane",
    "transport_fast_path", "scratch_reuse", "fast_path",
}


def _option_names(target) -> set:
    if dataclasses.is_dataclass(target):
        return {field.name for field in dataclasses.fields(target)}
    return set(inspect.signature(target).parameters)


@pytest.mark.parametrize(
    "target,also_gone",
    [
        pytest.param(SessionConfig, ("profile",), id="SessionConfig"),
        pytest.param(FleetConfig, ("executor_jobs",), id="FleetConfig"),
        pytest.param(ServiceConfig, ("jobs",), id="ServiceConfig"),
        pytest.param(VideoCodecConfig, (), id="VideoCodecConfig"),
        pytest.param(WebRTCChannel.__init__, (), id="WebRTCChannel"),
        pytest.param(TickWorkerPool.__init__, ("jobs",), id="TickWorkerPool"),
        pytest.param(CachedFrameSource.__init__, ("cached",), id="CachedFrameSource"),
        pytest.param(gather_prediction, ("shifted",), id="gather_prediction"),
    ],
)
def test_twin_path_options_do_not_grow_back(target, also_gone):
    assert not _option_names(target) & (REMOVED_OPTIONS | set(also_gone))


def test_fork_lane_and_fan_outs_stay_gone():
    # One place work runs: PointSSIM scoring on the quality lane's thread.
    with pytest.raises(ValueError):
        SessionConfig(executor="process")
    for name in ("ProcessExecutor", "StatefulWorker", "WorkerCrash", "ShmArena"):
        assert not hasattr(repro.runtime, name)
    # The session is the scheduler: no stream runner's queue, no executor
    # hierarchy, no stage hooks -- the quality lane owns a plain pool.
    for module in ("queues", "executors"):
        assert importlib.util.find_spec(f"repro.runtime.{module}") is None
    assert not _option_names(Stage.__init__) & {"pre_hooks", "post_hooks"}
    assert not hasattr(LiVoSender, "attach_executor")
    substrate = re.compile(r"multiprocessing|shared_memory|ProcessPoolExecutor")
    package = Path(repro.__file__).parent
    assert not [
        str(path.relative_to(package))
        for path in sorted(package.rglob("*.py"))
        if substrate.search(path.read_text())
    ]


def test_one_multi_party_driver_and_the_shim_stay_gone():
    # ConferenceDriver is the one multi-party frame loop; the fleet owns
    # its churn; core/multiway.py is the union cull and nothing else.
    assert multiway.__all__ == ["cull_views_union"]
    for name in ("MultiwaySender", "MultiwayResult", "MODES"):
        assert not hasattr(multiway, name)
    assert not _option_names(ConferenceDriver.__init__) & {
        "receivers", "churn_every", "seed", "pose_traces", "trace", "tracer",
    }
    assert not hasattr(ConferenceDriver, "churn")
    # A sender pipeline is built by the two-party session and by the
    # conference module (driver + unicast baseline), nowhere else.
    package = Path(repro.__file__).parent
    assert sorted(
        str(path.relative_to(package))
        for path in package.rglob("*.py")
        if re.search(r"\bLiVoSender\(", path.read_text())
    ) == ["core/session.py", "sfu/conference.py"]


def _modules_matching(pattern: str) -> list[str]:
    package = Path(repro.__file__).parent
    return sorted(
        str(path.relative_to(package))
        for path in package.rglob("*.py")
        if re.search(pattern, path.read_text())
    )


def test_one_conference_host_and_one_room_builder():
    # The fleet runs on the service host: the tick pool's round is the
    # one lockstep driver (BatchPlane.run delegates to it in-module),
    # and the fleet builds no driver or plane of its own.
    assert _modules_matching(r"\.run_lockstep\(") == ["runtime/batchplane.py", "service/workers.py"]
    fleet_source = (Path(repro.__file__).parent / "sfu" / "fleet.py").read_text()
    assert not re.search(r"\b(ConferenceDriver|RoomConference|BatchPlane)\(", fleet_source)
    # Every multi-party room opens in one place: the conferences, the
    # unicast control and the shared capture source are built there
    # (the two-party session builds its own source).
    assert _modules_matching(r"\b(ConferenceDriver|RoomConference|UnicastBaseline)\(") == [
        "sfu/room.py"
    ]
    assert _modules_matching(r"CachedFrameSource(\.for_config)?\(") == [
        "core/session.py", "sfu/room.py"
    ]


@pytest.mark.parametrize(
    "owner,name",
    [
        # The codec tables are one process-wide memo read by plain
        # functions; no per-stream arena replays hit/miss counts.
        (scratch, "ScratchArena"),
        (Scene, "static_fraction"),
        # One receivers x cameras visibility table per frame, returned by
        # the union cull and handed to forward: nothing re-tests a
        # frustum, and no cull cache, grid registry or node memo keeps
        # a frame's table, grids or uplink between calls.
        (SFUNode, "_kept_points"),
        (repro.perf, "culling"),
        # The cull that replaced CullCache keeps none of its memos: no
        # per-camera grid to forget, no transformed frustum by id().
        pytest.param(
            repro.prediction.culling, "forget_camera", id="CullCache-forget_camera"
        ),
        pytest.param(
            repro.prediction.culling,
            "transformed_frustum",
            id="CullCache-transformed_frustum",
        ),
        (SFUNode, "ingest"),
        (SFUNode, "cull_cache"),
        (SFUNode, "close"),
        (LiVoSender, "cull_cache"),
        # Fields only tests read.
        (ForwardDecision, "union_points"),
        (DownlinkSend, "receiver"),
        (DownlinkSend, "size_bytes"),
        (Stage, "add_pre_hook"),
        (Stage, "add_post_hook"),
        (StageGraph, "run_stream"),
        # Producers write themselves into the registry (metrics_into).
        (MetricsRegistry, "absorb_cache_stats"),
        (MetricsRegistry, "absorb_counters"),
        (MetricsRegistry, "absorb_stage_timings"),
        (MetricsRegistry, "absorb_fault_events"),
        # The trace is the one record of stage time: the tracer keeps no
        # context, a stage no spans, the report no timing dict, the
        # registry no copy, and the one stage table is tracetools'.
        (Tracer, "current"),
        (Tracer, "_local"),
        (Stage, "timing"),
        (Stage, "_spans"),
        (SessionReport, "attach_stage_timings"),
        (Histogram, "observe_many"),
        (repro.runtime, "profile"),
        # The SFU never re-encodes, so it holds no depth/color split:
        # the split is the sender's.
        (bandwidth_split, "SplitBook"),
        (SFUNode, "splits"),
        (ForwardDecision, "depth_bytes"),
        (ForwardDecision, "color_bytes"),
        (SFUNode, "predictors"),
        (CachedFrameSource, "capture_views"),
        (batchplane, "pointssim_features_request"),
        (LiVoSender, "close"),
        # One packet path: the SFU downlinks admit and feed GCC one
        # packet at a time, as the channel does.
        (EmulatedLink, "send_batch"),
        (GoogleCongestionControl, "on_feedback_batch"),
        (BandwidthTrace, "times_for_cumulative"),
        (link, "STATUS_DELIVERED"),
        # The channel groups FEC packets itself.
        (fec, "FECEncoder"),
        # Frames cross as bytes: parity repairs by XOR in the assembler,
        # the receiver parses what the channel carried, and no sender
        # object rides beside it.
        (fec, "FECGroupTracker"),
        (_Call, "encoded"),
        (FrameAssembler, "missing_fragments"),
        (FrameAssembler, "frame_complete"),
        (FrameAssembler, "completion_time"),
        (Packet, "is_retransmit"),
        # A serial wrapper nothing called, and two copies of other fields.
        (_CodecCore, "encode_plane"),
        (FleetResult, "capture_cache"),
        (FleetResult, "sfu_wall_per_frame_ms"),
        # Trace plumbing nothing turned on: the fleet span export, the
        # SFU node's stage wrappers and the worker-span shipping of the
        # deleted process lane.  Pool jobs record on the session tracer.
        (tracer_module, "worker_tracer"),
        (Tracer, "absorb"),
        (Tracer, "current_context"),
        (span_module, "TraceContext"),
        (SFUNode, "stages"),
        (SFUNode, "attach_tracer"),
        (batchplane.BatchPlane, "attach_tracer"),
        (FleetConfig, "trace_jsonl"),
        (tracetools, "FLEET_CATEGORIES"),
        (bandwidth_split.SplitController, "history"),
        # stop() ends the idle wait through the stop event; nothing
        # else nudged the pool.
        (TickWorkerPool, "wake"),
        (TickWorkerPool, "_wake"),
        # Conveniences only tests called: the product path uses the row
        # functions, the capture source's render_arrays, and the
        # report's stage_timings.
        (frustum_module, "Plane"),
        (frustum_module.Frustum, "planes"),
        (frustum_module.Frustum, "expanded"),
        (frustum_module.Frustum, "transformed"),
        (frustum_module.Frustum, "contains_grid"),
        # V-PCC is its encode-time model (paper section 1).
        (vpcc, "VPCCConfig"),
        (vpcc, "VPCCEncodedCloud"),
        (vpcc.VPCCCodec, "_project"),
        (vpcc.VPCCCodec, "encode"),
        (vpcc.VPCCCodec, "decode"),
        (StageGraph, "stage"),
        (StageGraph, "timings"),
        (StageTiming, "to_dict"),
        (SessionReport, "timing_dict"),
        (MetricsRegistry, "format_table"),
        (tracetools, "diff_jsonl"),
        (ProjectionCache, "render"),
        (image, "psnr"),
        (image, "masked_rmse"),
        (viz, "write_pgm"),
        # One z-buffer: render_frame over per-camera ProjectionCaches,
        # for the cached source and for one-off rig captures alike.
        (renderer, "render_rgbd"),
        (renderer, "render_views"),
        (renderer, "splat_image"),
        (renderer, "fill_holes"),
        (repro.capture, "render_rgbd"),
        (Scene, "sample"),
        (CaptureRig, "stream"),
        # One unprojection: unproject_views, camera by camera.
        (RGBDCamera, "unproject"),
        (PointCloud, "merge"),
        # One block splitter, over (..., H, W).
        (blocks, "split_blocks_nd"),
        (blocks, "pad_to_blocks"),
        # A scheme is its name (SessionConfig.scheme, a key of SCHEMES):
        # no flag pair, no second label, and the replays take no knob
        # only tests set.
        (config_module, "SchemeFlags"),
        (schemes.SchemeSpec, "flags"),
        (LiVoSession.run, "scheme_name"),
        (LiVoSession.run, "tracer"),
        (LiVoSession.run, "receiver_id"),
        (DracoOracleSession.run, "oracle_fps"),
        (MeshReduceSession.run, "conservativeness"),
        (LiVoSender, "receiver_id"),
        (LiVoReceiver, "receiver_id"),
        (_Call.__init__, "receiver_id"),
        # Counters name what runs: every cache_stats row counts a cache
        # whose hit skips work.  No emulated codec-scratch, transport or
        # quality-feature tally, and the batch plane's requests carry no
        # stream context to count through.
        (_CodecCore, "arena"),
        (VideoEncoder, "cache_counters"),
        (VideoDecoder, "cache_counters"),
        (LiVoSender, "cache_counters"),
        (batchplane.BatchRequest, "ctx"),
        (batchplane.plane_transform_request, "ctx"),
        (batchplane.motion_request, "ctx"),
        (batchplane.entropy_encode_request, "ctx"),
        (batchplane.BatchPlane, "metrics_into"),
        (BatchCounters, "metrics_into"),
        (BatchCounters, "name"),
        (WebRTCChannel, "batch_counters"),
        (_QualityLane, "featurized"),
        # The baselines' per-frame accounting lives in their replays'
        # FrameRecords; the compressors keep no tallies of their own.
        (DracoOracle, "stalls"),
        (DracoOracle, "frames"),
        (DracoOracle, "stall_rate"),
        (MeshReducePipeline, "frames_offered"),
        (MeshReducePipeline, "frames_sent"),
        (MeshReducePipeline, "achieved_fps"),
        # A value is written once (tests/test_config_surface.py counts
        # the definitions): the 6 m sensing range, the 1200-byte MTU,
        # the Kalman noise and the entropy coder's effort are module
        # constants, and a Kalman filter sizes itself from its first
        # measurement.
        (scaling, "DEFAULT_MAX_DEPTH_MM"),
        (scaling.scale_factor, "max_depth_mm"),
        (scaling.scale_depth, "max_depth_mm"),
        (scaling.unscale_depth, "max_depth_mm"),
        (ScaledY16DepthStream.__init__, "max_depth_mm"),
        (viz.depth_to_color, "max_depth_mm"),
        (camera_module, "DEFAULT_MAX_DEPTH_M"),
        (config_module, "MAX_DEPTH_MM"),
        (RGBDCamera.__init__, "max_depth_m"),
        (RGBDCamera.looking_at, "max_depth_m"),
        (camera_module.ring_of_cameras, "max_depth_m"),
        (packet_module, "DEFAULT_MTU"),
        (DownlinkSet.__init__, "mtu_bytes"),
        (rtp.packetize, "mtu"),
        (ConstantVelocityKalman.__init__, "num_dims"),
        (ConstantVelocityKalman.__init__, "process_noise"),
        (ConstantVelocityKalman.__init__, "measurement_noise"),
        (PoseKalmanPredictor.__init__, "process_noise"),
        (PoseKalmanPredictor.__init__, "measurement_noise"),
        (FrustumPredictor.__init__, "process_noise"),
        (FrustumPredictor.__init__, "measurement_noise"),
        (entropy.encode_levels, "effort"),
        (entropy.encode_levels_batch, "effort"),
        (batchplane.entropy_encode_request, "effort"),
        # Knobs no caller outside the tests set are module constants.
        (VideoEncoder.__init__, "rate_controller"),
        (RateController.__init__, "initial_qp"),
        (RateController.__init__, "qp_min"),
        (RateController.__init__, "max_step"),
        (RateController.__init__, "smoothing"),
        (RateController.__init__, "retry_overshoot"),
        (WebRTCChannel.__init__, "num_streams"),
        (ReliableByteStream.__init__, "efficiency"),
        (trace_1, "interval_s"),
        (trace_2, "interval_s"),
        (SFUNode.__init__, "keep_views"),
        (SFUNode, "_culled_views"),
        (ForwardDecision, "forwarded_multiview"),
        (synthetic_user_trace, "scene_center"),
        (synthetic_user_trace, "orbit_radius_m"),
        (synthetic_user_trace, "dwell_s"),
        (synthetic_user_trace, "move_s"),
        (synthetic_user_trace, "jitter_m"),
        (user_traces_for_video, "num_traces"),
        (MLPPosePredictor.fit, "batch_size"),
        (MLPPosePredictor.fit, "learning_rate"),
        (default_rig, "radius_m"),
        (default_rig, "camera_height_m"),
        (camera_module.ring_of_cameras, "target"),
        (make_scene, "room_half_width"),
        (Person.__init__, "skin_color"),
        (look_at, "up"),
        (renderer.fill_holes_batch, "iterations"),
        (renderer.fill_holes_batch, "min_neighbors"),
        (MOSModel, "geometry_gain"),
        (MOSModel, "color_gain"),
        (MOSModel, "stall_penalty"),
        (MOSModel, "fps_penalty"),
        (MOSModel, "quality_floor"),
        (MOSModel, "rater_noise"),
        (mesh_from_views, "max_edge_depth_gap_m"),
        (encode_mesh, "draco_config"),
        (packing.pack_triangle_rgb, "period"),
        (packing.unpack_triangle_rgb, "period"),
        (LiVoSender.process, "force_intra"),
        (LiVoSender.process, "fail_encode"),
        (LiVoSender.process, "color_budget_scale"),
        (SessionReport.fps_series, "window_s"),
        (Tracer.add_span, "status"),
        (Tracer.add_span, "clock"),
        (Tracer.instant, "clock"),
        (Tracer.open_frame, "attrs"),
        (Tracer.close_frame, "attrs"),
        (Tracer.span, "attrs"),
        (HttpServer.__init__, "handler_threads"),
        (SessionRegistry.kill, "reason"),
        (recorder.artifact_records, "snapshot_every"),
        (format_table, "columns"),
        (format_table, "min_width"),
        # One clock per stage: a stage item is one span on the replay's
        # tracer, its timing is read off those spans, and the sender
        # keeps no spans of its own.
        (Stage, "attach_tracer"),
        (StageTiming, "record"),
        (LiVoSender, "attach_tracer"),
        (LiVoSender, "_kernel_spans"),
        (LiVoSender, "tracer"),
        (_Call.__init__, "tracer"),
        (tracetools, "StageStat"),
        # The camera's near limit and the headset's optics are constants.
        (camera_module, "DEFAULT_MIN_DEPTH_M"),
        (RGBDCamera.__init__, "min_depth_m"),
        (frustum_module.Frustum.from_camera, "vertical_fov_deg"),
        (frustum_module.Frustum.from_camera, "aspect"),
        (frustum_module.Frustum.from_camera, "near_m"),
        (frustum_module.Frustum.from_camera, "far_m"),
        # One seat per receiver: the node's receivers dict holds each
        # receiver once, the node counts each byte once, and no
        # per-receiver tally or accessor outlives its last reader.
        (repro.sfu, "receivers"),
        (ReceiverState, "extras"),
        (ReceiverState, "offer_downlink"),
        (ReceiverState, "frames_forwarded"),
        (ReceiverState, "bytes_forwarded"),
        (ReceiverState, "last_kept_fraction"),
        (ForwardDecision, "kept_fraction"),
        (ForwardDecision, "rate_bps"),
        (ForwardDecision, "downlink"),
        (DownlinkSet, "queue_delay_at"),
        (EmulatedLink, "queue_delay_at"),
        (DownlinkSend, "complete"),
        # A scene is fixed for its run: a capture is keyed by its
        # sequence, and a projection cache keeps only its static image.
        (Scene, "invalidate"),
        (Scene, "epoch"),
        (Scene, "_epoch"),
        (Scene, "_batch_counts"),
        (Scene, "num_objects"),
        (Scene.__init__, "num_objects"),
        (SampleBatch, "epoch"),
        (SampleBatch, "key"),
        (ProjectionCache, "batch_splats"),
        (ProjectionCache, "_static"),
        (ProjectionCache, "_image_key"),
        (FrustumPredictor, "_last_pose"),
    ],
    ids=lambda value: getattr(value, "__name__", value).rsplit(".", 1)[-1],
)
def test_uncalled_surface_stays_gone(owner, name):
    surface = set(dir(owner))
    if inspect.ismodule(owner) and hasattr(owner, "__path__"):
        # A package's submodules are surface whether imported or not.
        surface |= {module.name for module in pkgutil.iter_modules(owner.__path__)}
    if inspect.isfunction(owner):
        surface |= _option_names(owner)
    if inspect.isclass(owner):
        # Dataclass fields without a default, and attributes set only
        # on instances, are not on the class itself.
        if dataclasses.is_dataclass(owner):
            surface |= _option_names(owner)
        surface |= set(re.findall(r"\bself\.(\w+)\s*=", inspect.getsource(owner)))
    assert name not in surface
    assert "pointssim_features" not in batchplane.KERNELS


def test_quality_feature_cache_stays_gone():
    # PointSSIM keeps nothing between calls: no feature cache, no
    # sampled content key, no cache argument, and the scalar comparison
    # is the tests' oracle (tests/reference/pointssim.py).
    for module in ("features", "fingerprint"):
        assert importlib.util.find_spec(f"repro.perf.{module}") is None
    for scorer in (pointssim_module.pointssim, pointssim_module.pointssim_batch):
        assert "cache" not in _option_names(scorer)
    assert not hasattr(pointssim_module, "pointssim_from_features")


def test_second_jitter_buffer_and_scheme_aggregator_stay_gone():
    # The playout rule in _Call._delivered (JITTER_TARGET_S) is the
    # jitter buffer that runs; benchmarks/_grid.py aggregates the grid.
    for module in ("repro.transport.jitter", "repro.analysis.aggregate"):
        with pytest.raises(ImportError):
            importlib.import_module(module)
    import repro.analysis
    import repro.transport

    assert "JitterBuffer" not in dir(repro.transport)
    assert not {"SchemeSummary", "aggregate_reports", "compare_schemes"} & set(
        dir(repro.analysis)
    )


def test_tandem_queue_model_stays_gone():
    # Appendix A.1's model of the deleted stage-per-thread runtime.
    assert importlib.util.find_spec("repro.core.pipeline") is None


def test_bitfield_reference_stays_out_of_the_package():
    # The per-bit packers are the tests' oracle (tests/reference/bitfields.py);
    # inside the package they were a second bit-packing path.
    assert not [name for name in vars(entropy) if name.endswith("_scalar")]


@pytest.mark.parametrize(
    "argv",
    [
        ["--no-kernel-cache"],
        ["run", "--no-kernel-cache"],
        ["run", "--no-transport-fast-path"],
        ["run", "--no-batch-kernels"],
        ["run", "--no-shm"],
        ["run", "--executor", "process"],
        # Scoring has one thread; there is nothing left to choose.
        ["run", "--jobs", "2"],
        ["run", "--executor", "thread"],
        ["run", "--no-batch-plane"],
        ["serve", "--no-batch-plane"],
        ["serve", "--jobs", "2"],
        # The closed-loop load generator; the benchmark's open-loop
        # driver is the only one.
        ["loadgen"],
        # The fleet span export is gone; `run.py --workload fleet
        # --trace 1` answers where a fleet tick's time goes.
        ["analyze-trace", "x.jsonl", "--fleet"],
    ],
    ids=" ".join,
)
def test_twin_path_cli_hatches_are_usage_errors(argv):
    with pytest.raises(SystemExit) as usage:
        cli.build_parser().parse_args(argv)
    assert usage.value.code == 2


@pytest.mark.parametrize("hatch", [["--no-batch-plane"], ["--jobs", "2"]], ids=" ".join)
def test_loadgen_hatches_are_usage_errors(hatch):
    # The whole subcommand is gone, so its old flags are usage errors too;
    # the small schedule only bounds the run should it ever come back.
    with pytest.raises(SystemExit) as usage:
        cli.main(["loadgen", "--clients", "8", "--duration", "0.2", *hatch])
    assert usage.value.code == 2
