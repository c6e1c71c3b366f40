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
import re
from pathlib import Path

import pytest

import repro
import repro.capture
import repro.runtime
from repro import cli, viz
from repro.analysis import tracetools
from repro.capture import renderer
from repro.capture.dataset import load_video
from repro.capture.renderer import ProjectionCache
from repro.capture.rig import CaptureRig
from repro.capture.scene import Scene
from repro.codec import blocks, entropy
from repro.codec.motion import gather_prediction
from repro.codec.video import VideoCodecConfig, _CodecCore
from repro.compression import vpcc
from repro.core import bandwidth_split, multiway, schemes
from repro.core import config as config_module
from repro.core import session as session_module
from repro.core.config import SessionConfig
from repro.core.receiver import LiVoReceiver
from repro.core.sender import LiVoSender
from repro.core.session import DracoOracleSession, LiVoSession, MeshReduceSession, _Call
from repro.core.stats import SessionReport
from repro.faults.plan import (
    BurstLossWindow,
    EncoderFault,
    FaultPlan,
    FrameCorruption,
    LinkOutage,
)
from repro.geometry import frustum as frustum_module
from repro.geometry.camera import RGBDCamera
from repro.geometry.pointcloud import PointCloud
from repro.metrics import image
from repro.metrics import pointssim as pointssim_module
from repro.obs import span as span_module
from repro.obs import tracer as tracer_module
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.perf.capture import CachedFrameSource
from repro.perf.culling import CullCache
from repro.perf.scratch import ScratchArena
from repro.prediction.pose import user_traces_for_video
from repro.runtime import batchplane
from repro.runtime.stage import Stage, StageGraph, StageTiming
from repro.service.app import ServiceApp, ServiceConfig
from repro.service.workers import TickWorkerPool
from repro.sfu.conference import ConferenceDriver
from repro.sfu.fleet import FleetConfig, FleetResult, run_fleet
from repro.sfu.node import ForwardDecision, SFUNode
from repro.sfu.receivers import ReceiverBook
from repro.transport import fec, link
from repro.transport.channel import WebRTCChannel, WebRTCConfig
from repro.transport.gcc import GoogleCongestionControl
from repro.transport.packet import Packet
from repro.transport.rtp import FrameAssembler
from repro.transport.link import EmulatedLink, LinkConfig
from repro.transport.traces import BandwidthTrace, trace_1
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
        report = session_cls(SessionConfig(**SMALL, jobs=jobs)).run(
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
        (ScratchArena, "block_buffer"),
        (Scene, "static_fraction"),
        (CullCache, "forget_camera"),
        # One receivers x cameras visibility table per frame: forward
        # reads it, nothing re-tests a frustum or memoizes one by id().
        (CullCache, "transformed_frustum"),
        (SFUNode, "_kept_points"),
        (Stage, "add_pre_hook"),
        (Stage, "add_post_hook"),
        (StageGraph, "run_stream"),
        # Producers write themselves into the registry (metrics_into).
        (MetricsRegistry, "absorb_cache_stats"),
        (MetricsRegistry, "absorb_counters"),
        (MetricsRegistry, "absorb_stage_timings"),
        (MetricsRegistry, "absorb_fault_events"),
        # The SFU never re-encodes, so it holds no depth/color split:
        # the split is the sender's.
        (bandwidth_split, "SplitBook"),
        (SFUNode, "splits"),
        (ForwardDecision, "depth_bytes"),
        (ForwardDecision, "color_bytes"),
        (ReceiverBook, "predictors"),
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
    ],
    ids=lambda value: getattr(value, "__name__", value).rsplit(".", 1)[-1],
)
def test_uncalled_surface_stays_gone(owner, name):
    surface = set(dir(owner))
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

    assert "JitterBuffer" not in repro.transport.__all__
    assert not {"SchemeSummary", "aggregate_reports", "compare_schemes"} & set(
        repro.analysis.__all__
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
