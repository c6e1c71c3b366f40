"""Stage runtime and the scoring thread: stages time every item, a
session replay is byte-identical however its scoring thread is paced,
and the scoring never runs on the session thread.
"""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.capture.dataset import load_video
from repro.capture.rgbd import MultiViewFrame, RGBDFrame
from repro.capture.rig import default_rig
from repro.core.config import SessionConfig
from repro.core.sender import LiVoSender
import repro.core.session as session_module
from repro.core.baselines import DracoOracleSession, MeshReduceSession
from repro.core.session import LiVoSession
from repro.obs.timeline import stage_timings
from repro.obs.tracer import Tracer
from repro.prediction.pose import user_traces_for_video
from repro.runtime.stage import Stage, StageGraph
from repro.transport.traces import trace_1


class TestStageGraph:
    def _graph(self, tracer):
        return StageGraph(
            [Stage("double", lambda x: 2 * x, tracer), Stage("inc", lambda x: x + 1, tracer)]
        )

    def test_timings_recorded_per_stage(self):
        tracer = Tracer()
        graph = self._graph(tracer)
        assert [graph.run_item(item) for item in range(5)] == [1, 3, 5, 7, 9]
        timings = list(stage_timings(tracer.spans(), ["double", "inc"]).values())
        assert [t.name for t in timings] == ["double", "inc"]
        assert all(t.count == 5 for t in timings)
        assert all(t.mean_s >= 0 for t in timings)
        # The timings are the spans: one per item, in item order.
        for timing in timings:
            assert timing.samples == tuple(
                span.duration_s for span in tracer.spans() if span.name == timing.name
            )

    def test_duplicate_stage_names_rejected(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            StageGraph([Stage("a", lambda x: x, tracer), Stage("a", lambda x: x, tracer)])


def _synthetic_frame(rig, sequence=0, empty=False):
    height = rig.cameras[0].intrinsics.height
    width = rig.cameras[0].intrinsics.width
    rng = np.random.default_rng(7 + sequence)
    views = []
    for index in range(len(rig.cameras)):
        if empty:
            depth = np.zeros((height, width), dtype=np.uint16)
            color = np.zeros((height, width, 3), dtype=np.uint8)
        else:
            depth = rng.integers(500, 3000, (height, width)).astype(np.uint16)
            color = rng.integers(0, 255, (height, width, 3)).astype(np.uint8)
        views.append(RGBDFrame(color, depth, camera_id=index, sequence=sequence))
    return MultiViewFrame(views, sequence=sequence)


class TestSenderDegeneratePaths:
    def _sender(self):
        rig = default_rig(num_cameras=2, width=32, height=24)
        config = SessionConfig(
            num_cameras=2, camera_width=32, camera_height=24, gop_size=5
        )
        return rig, LiVoSender(rig.cameras, config)

    def test_empty_capture_yields_skippable_result(self):
        """A capture with no valid points (every view culled/dead) must
        produce a valid zero-byte result, not an all-zero encode."""
        rig, sender = self._sender()
        prepared = sender.prepare(_synthetic_frame(rig, empty=True), 0.1)
        assert prepared.is_empty
        assert prepared.tiled_color is None and prepared.tiled_depth is None
        result = sender.encode(prepared, 2e6)
        assert result is not None and result.empty
        assert result.total_bytes == 0
        assert result.color_frame is None and result.depth_frame is None

    def test_empty_frame_leaves_reference_chain_intact(self):
        """Encoders skip empty frames entirely: the next real frame
        continues the stream as if the empty capture never happened."""
        rig, sender = self._sender()
        real0 = sender.process(_synthetic_frame(rig, 0), 2e6, 0.1)
        empty = sender.process(_synthetic_frame(rig, 1, empty=True), 2e6, 0.1)
        real2 = sender.process(_synthetic_frame(rig, 2), 2e6, 0.1)
        assert real0 is not None and not real0.empty
        assert empty is not None and empty.empty
        assert real2 is not None and not real2.empty
        assert real2.total_bytes > 0

    def test_raising_encoder_skips_the_capture_and_recovers(self, monkeypatch):
        """An encoder exception mid-frame skips that capture (None), not
        the session; the next capture encodes again.  Run as the encode
        stage, the doomed frame's span closes like any other."""
        rig, sender = self._sender()
        tracer = Tracer()
        encode = Stage(
            "encode", lambda frame: sender.process(frame, 2e6, 0.1), tracer
        )
        first = encode(_synthetic_frame(rig, 0))
        assert first is not None and first.total_bytes > 0

        def broken(*args, **kwargs):
            raise RuntimeError("encoder died")
            yield  # pragma: no cover -- makes this a generator, like the real one

        with monkeypatch.context() as patch:
            patch.setattr(sender.color_encoder, "encode_to_target_steps", broken)
            crashed = encode(_synthetic_frame(rig, 1))
        assert crashed is None and sender.encode_failures == 1
        recovered = encode(_synthetic_frame(rig, 2))
        assert recovered is not None and recovered.total_bytes > 0
        assert [span.trace_id for span in tracer.spans()] == [0, 1, 2]
        assert tracer.open_spans() == []
        assert stage_timings(tracer.spans(), ["encode"])["encode"].count == 3


class TestParallelSessionParity:
    @pytest.fixture(scope="class")
    def workload(self):
        config = dict(
            num_cameras=3, camera_width=32, camera_height=24,
            scene_sample_budget=5000, gop_size=5, quality_every=3,
        )
        _, scene = load_video("office1", sample_budget=5000)
        user = user_traces_for_video("office1", 16)[0]
        return config, scene, user

    def test_parallel_replay_is_byte_identical_to_serial(self, workload):
        """Scoring off the session thread never reaches the report:
        repeated runs (``jobs``/``executor`` are accepted and choose
        nothing) give the same SessionReport, frame records and all."""
        base, scene, user = workload
        serial = LiVoSession(SessionConfig(**base, executor="serial")).run(
            scene, user, trace_1(duration_s=5), 6
        )
        for jobs in (2, 3):
            parallel = LiVoSession(
                SessionConfig(**base, jobs=jobs, executor="thread")
            ).run(scene, user, trace_1(duration_s=5), 6)
            assert dataclasses.asdict(parallel) == dataclasses.asdict(serial)

    @pytest.mark.parametrize("session_class", [DracoOracleSession, MeshReduceSession])
    def test_baseline_schemes_score_on_threads_identically(
        self, workload, session_class
    ):
        base, scene, user = workload
        base = {**base, "quality_every": 1, "scheme": session_class.SCHEME}
        serial = session_class(SessionConfig(**base)).run(
            scene, user, trace_1(duration_s=5), 6
        )
        threaded = session_class(SessionConfig(**base, jobs=2)).run(
            scene, user, trace_1(duration_s=5), 6
        )
        assert any(frame.pssim_geometry is not None for frame in serial.frames)
        assert dataclasses.asdict(threaded) == dataclasses.asdict(serial)

    @pytest.mark.parametrize(
        "session_class", [LiVoSession, DracoOracleSession, MeshReduceSession]
    )
    def test_session_thread_never_scores_and_hand_off_is_bounded(
        self, workload, session_class, monkeypatch
    ):
        base, scene, user = workload
        scheme = getattr(session_class, "SCHEME", "LiVo")
        config = SessionConfig(**{**base, "quality_every": 1, "scheme": scheme})
        plain = session_class(config).run(scene, user, trace_1(duration_s=5), 12)
        scored_on, futures, in_flight = [], [], []
        score = session_module.pointssim_batch

        def slow_score(*args, **kwargs):
            scored_on.append(threading.get_ident())
            time.sleep(0.1)
            return score(*args, **kwargs)

        class CountingPool(session_module.ThreadPoolExecutor):
            def submit(self, fn, *args):
                future = super().submit(fn, *args)
                futures.append(future)
                in_flight.append(sum(not queued.done() for queued in futures))
                return future

        monkeypatch.setattr(session_module, "pointssim_batch", slow_score)
        monkeypatch.setattr(session_module, "ThreadPoolExecutor", CountingPool)
        slow = session_class(config).run(scene, user, trace_1(duration_s=5), 12)
        assert len(scored_on) > 2 and threading.get_ident() not in scored_on
        # The scorer is slower than a tick: jobs pile up to the bound, not past it.
        assert max(in_flight) == 2
        assert dataclasses.asdict(slow) == dataclasses.asdict(plain)

    def test_stage_timings_attached_but_asdict_invisible(self, workload):
        base, scene, user = workload
        report = LiVoSession(SessionConfig(**base)).run(
            scene, user, trace_1(duration_s=5), 4
        )
        timings = report.stage_timings
        assert timings is not None
        assert {"capture", "prepare", "encode", "decode"} <= set(timings)
        assert timings["capture"].count == 4
        assert "_stage_timings" not in dataclasses.asdict(report)
        assert "capture" in report.timing_table()
        assert timings["encode"].count == 4


class TestConfigAndModel:
    def test_config_validates_runtime_fields(self):
        with pytest.raises(ValueError):
            SessionConfig(jobs=0)
        with pytest.raises(ValueError):
            SessionConfig(executor="gpu")
        with pytest.raises(ValueError):
            SessionConfig(quality_every=0)  # used to die mid-run, modulo by zero
        # Accepted, never stored: scoring has one substrate.
        assert SessionConfig(jobs=4, executor="thread") == SessionConfig()

    def test_cli_exposes_runtime_flags(self):
        from repro.cli import build_parser

        assert build_parser().parse_args(["run", "--profile"]).profile
