"""Edge cases for session drivers and scheme naming."""

import math

import pytest

from repro.capture.dataset import load_video
from repro.core.config import SchemeFlags, SessionConfig
from repro.core.session import DracoOracleSession, LiVoSession, MeshReduceSession
from repro.perf.capture import CachedFrameSource
from repro.prediction.pose import user_traces_for_video
from repro.transport.traces import constant_trace

FRAMES = 8


@pytest.fixture(scope="module")
def tiny_workload():
    _, scene = load_video("dance5", sample_budget=10_000)
    user = user_traces_for_video("dance5", FRAMES + 10)[0]
    return scene, user


def tiny_config(**overrides) -> SessionConfig:
    params = dict(
        num_cameras=4, camera_width=40, camera_height=30,
        scene_sample_budget=10_000, gop_size=6, quality_every=4,
    )
    params.update(overrides)
    return SessionConfig(**params)


class TestSchemeNaming:
    def test_auto_name_livo(self, tiny_workload):
        scene, user = tiny_workload
        report = LiVoSession(tiny_config()).run(
            scene, user, constant_trace(100.0), FRAMES
        )
        assert report.scheme == "LiVo"

    def test_auto_name_nocull(self, tiny_workload):
        scene, user = tiny_workload
        config = tiny_config(scheme=SchemeFlags(culling=False))
        report = LiVoSession(config).run(scene, user, constant_trace(100.0), FRAMES)
        assert report.scheme == "LiVo-NoCull"

    def test_auto_name_noadapt(self, tiny_workload):
        scene, user = tiny_workload
        config = tiny_config(scheme=SchemeFlags(culling=False, adaptation=False))
        report = LiVoSession(config).run(scene, user, constant_trace(100.0), FRAMES)
        assert report.scheme == "LiVo-NoAdapt"

    def test_explicit_name_wins(self, tiny_workload):
        scene, user = tiny_workload
        report = LiVoSession(tiny_config()).run(
            scene, user, constant_trace(100.0), FRAMES, scheme_name="custom"
        )
        assert report.scheme == "custom"


class TestExplicitTraceScale:
    def test_trace_scale_override(self, tiny_workload):
        scene, user = tiny_workload
        config = tiny_config(trace_scale=0.5)
        report = LiVoSession(config).run(scene, user, constant_trace(10.0), FRAMES)
        assert report.trace_scale == 0.5
        assert report.mean_capacity_mbps == pytest.approx(5.0)

    def test_paper_equivalent_throughput(self, tiny_workload):
        scene, user = tiny_workload
        config = tiny_config(trace_scale=0.5)
        report = LiVoSession(config).run(scene, user, constant_trace(10.0), FRAMES)
        assert report.paper_equivalent_throughput_mbps == pytest.approx(
            report.throughput_mbps / 0.5
        )

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_config_rejects_unusable_scale(self, scale):
        # Caught when the config is built, not deep inside run().
        with pytest.raises(ValueError, match="trace_scale"):
            tiny_config(trace_scale=scale)


class TestOverlappingRuns:
    def test_nested_run_leaves_the_outer_scoring_alone(self, tiny_workload):
        """A second session started in the same process while the first
        is mid-run (here: from inside its pose trace) must not re-point
        the first one's PointSSIM subsample bound."""
        scene, user = tiny_workload
        frames = 12
        config = tiny_config(quality_every=1)
        solo = LiVoSession(config).run(scene, user, constant_trace(100.0), frames)

        class _Nesting:
            name = user.name

            def __init__(self) -> None:
                self.nested = 0

            def pose_at_frame(self, index):
                if index == 3 and not self.nested:
                    self.nested += 1
                    LiVoSession(tiny_config(quality_every=1, quality_max_points=150)).run(
                        scene, user, constant_trace(100.0), frames
                    )
                return user.pose_at_frame(index)

        trace = _Nesting()
        outer = LiVoSession(config).run(scene, trace, constant_trace(100.0), frames)
        assert trace.nested == 1
        assert outer.asdict() == solo.asdict()


class TestBaselineSessionEdges:
    def test_oracle_invalid_frames(self, tiny_workload):
        scene, user = tiny_workload
        with pytest.raises(ValueError):
            DracoOracleSession(tiny_config()).run(scene, user, constant_trace(10.0), 0)

    def test_meshreduce_invalid_frames(self, tiny_workload):
        scene, user = tiny_workload
        with pytest.raises(ValueError):
            MeshReduceSession(tiny_config()).run(scene, user, constant_trace(10.0), 0)

    def test_oracle_respects_custom_fps(self, tiny_workload):
        scene, user = tiny_workload
        report = DracoOracleSession(tiny_config()).run(
            scene, user, constant_trace(100.0), FRAMES, oracle_fps=10.0
        )
        assert report.fps_target == 10.0
        # 30 fps capture ticks strided by 3.
        assert report.num_frames == -(-FRAMES // 3)

    @pytest.mark.parametrize("oracle_fps", [0.0, -15.0])
    def test_oracle_rejects_non_positive_fps_before_capture(
        self, tiny_workload, monkeypatch, oracle_fps
    ):
        # Divided by zero after frame 0 had been rendered.
        def no_capture(*args, **kwargs):
            raise AssertionError("captured before the parameter check")

        monkeypatch.setattr(CachedFrameSource, "capture", no_capture)
        scene, user = tiny_workload
        with pytest.raises(ValueError, match="oracle_fps"):
            DracoOracleSession(tiny_config()).run(
                scene, user, constant_trace(10.0), FRAMES, oracle_fps=oracle_fps
            )

    @pytest.mark.parametrize("conservativeness", [0.0, -1.0])
    def test_meshreduce_rejects_non_positive_conservativeness(
        self, tiny_workload, conservativeness
    ):
        # Ran to completion on a non-positive byte budget.
        scene, user = tiny_workload
        with pytest.raises(ValueError, match="conservativeness"):
            MeshReduceSession(tiny_config()).run(
                scene, user, constant_trace(10.0), FRAMES,
                conservativeness=conservativeness,
            )


@pytest.mark.parametrize(
    "field,value",
    [
        ("num_cameras", 0),
        ("camera_width", 0),
        ("camera_height", -4),
        ("scene_sample_budget", 0),
        ("scene_sample_budget", -3),
    ],
)
def test_config_rejects_out_of_range_at_construction(field, value):
    with pytest.raises(ValueError, match=field):
        SessionConfig(**{field: value})
