"""Edge cases for session drivers and scheme naming."""

import dataclasses
import math

import pytest

from repro.capture.dataset import load_video
from repro.core import baselines
from repro.core.baselines import DracoOracleSession, MeshReduceSession
from repro.core.config import SessionConfig
from repro.core.schemes import SCHEMES
from repro.core.session import LiVoSession, run_scheme
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
        config = tiny_config(scheme="LiVo-NoCull")
        report = LiVoSession(config).run(scene, user, constant_trace(100.0), FRAMES)
        assert report.scheme == "LiVo-NoCull"
        assert report.mean_culled_fraction == 1.0

    def test_auto_name_noadapt(self, tiny_workload):
        scene, user = tiny_workload
        config = tiny_config(scheme="LiVo-NoAdapt")
        report = LiVoSession(config).run(scene, user, constant_trace(100.0), FRAMES)
        assert report.scheme == "LiVo-NoAdapt"

    def test_noadapt_keeps_every_point(self, tiny_workload):
        # The name alone decides: NoAdapt neither adapts nor culls.
        scene, user = tiny_workload
        report = LiVoSession(tiny_config(scheme="LiVo-NoAdapt")).run(
            scene, user, constant_trace(100.0), FRAMES
        )
        assert report.mean_culled_fraction == 1.0
        assert {frame.culled_points for frame in report.frames} != {0}

    @pytest.mark.parametrize("name", ["custom", "livo", "Draco", ""])
    def test_unknown_name_rejected_at_construction(self, name):
        with pytest.raises(ValueError, match="unknown scheme"):
            tiny_config(scheme=name)

    @pytest.mark.parametrize("name", ["Draco-Oracle", "MeshReduce"])
    def test_livo_session_rejects_a_baseline_name(self, tiny_workload, monkeypatch, name):
        def no_capture(*args, **kwargs):
            raise AssertionError("captured before the scheme check")

        monkeypatch.setattr(CachedFrameSource, "capture", no_capture)
        scene, user = tiny_workload
        with pytest.raises(ValueError, match="not a LiVo scheme"):
            LiVoSession(tiny_config(scheme=name)).run(scene, user, constant_trace(100.0), FRAMES)

    @pytest.mark.parametrize(
        "replay,name",
        [
            (DracoOracleSession, "LiVo"),
            (DracoOracleSession, "MeshReduce"),
            (MeshReduceSession, "LiVo-NoCull"),
            (MeshReduceSession, "Draco-Oracle"),
        ],
    )
    def test_baseline_rejects_another_name(self, tiny_workload, monkeypatch, replay, name):
        # A baseline used to report its own name for any config.
        def no_capture(*args, **kwargs):
            raise AssertionError("captured before the scheme check")

        monkeypatch.setattr(CachedFrameSource, "capture", no_capture)
        scene, user = tiny_workload
        with pytest.raises(ValueError, match=f"replays {replay.SCHEME}, not {name}"):
            replay(tiny_config(scheme=name)).run(scene, user, constant_trace(100.0), FRAMES)

    @pytest.mark.parametrize("name", list(SCHEMES))
    def test_run_scheme_reports_under_its_name(self, tiny_workload, name):
        scene, user = tiny_workload
        config = tiny_config(num_cameras=2, camera_width=32, camera_height=24, scheme=name)
        report = run_scheme(config, scene, user, constant_trace(100.0), 4, "dance5")
        assert (report.scheme, report.video) == (name, "dance5")
        assert report.fps_target == SCHEMES[name].fps

    @pytest.mark.parametrize("name", list(SCHEMES))
    def test_cache_stats_count_real_caches_only(self, tiny_workload, name):
        # Every row counts a cache whose hit skips work a miss does: the
        # capture's projection cache, and no emulated tally.
        scene, user = tiny_workload
        config = tiny_config(num_cameras=2, camera_width=32, camera_height=24, scheme=name)
        report = run_scheme(config, scene, user, constant_trace(100.0), 4, "dance5")
        assert set(report.cache_stats) == {"capture_projection"}
        names = report.metrics.names() if report.metrics is not None else []
        assert not [
            metric for metric in names
            if metric.startswith(
                ("cache.codec_scratch", "cache.transport_batch", "cache.quality_features")
            )
        ]


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
            DracoOracleSession(tiny_config(scheme="Draco-Oracle")).run(
                scene, user, constant_trace(10.0), 0
            )

    def test_meshreduce_invalid_frames(self, tiny_workload):
        scene, user = tiny_workload
        with pytest.raises(ValueError):
            MeshReduceSession(tiny_config(scheme="MeshReduce")).run(
                scene, user, constant_trace(10.0), 0
            )

    def test_oracle_respects_custom_fps(self, tiny_workload, monkeypatch):
        spec = dataclasses.replace(SCHEMES["Draco-Oracle"], fps=10)
        monkeypatch.setitem(SCHEMES, "Draco-Oracle", spec)
        scene, user = tiny_workload
        report = DracoOracleSession(tiny_config(scheme="Draco-Oracle")).run(
            scene, user, constant_trace(100.0), FRAMES
        )
        assert report.fps_target == 10.0
        # 30 fps capture ticks strided by 3.
        assert report.num_frames == -(-FRAMES // 3)

    @pytest.mark.parametrize("conservativeness", [0.0, -1.0])
    def test_meshreduce_rejects_non_positive_conservativeness(
        self, tiny_workload, monkeypatch, conservativeness
    ):
        # Ran to completion on a non-positive byte budget.
        monkeypatch.setattr(baselines, "MESHREDUCE_CONSERVATIVENESS", conservativeness)
        scene, user = tiny_workload
        with pytest.raises(ValueError, match="conservativeness"):
            MeshReduceSession(tiny_config(scheme="MeshReduce")).run(
                scene, user, constant_trace(10.0), FRAMES
            )


@pytest.mark.parametrize(
    "field,value",
    [
        ("num_cameras", 0),
        # Too many tiles for any header: caught before the grid search
        # (a float overflow, or a sqrt(n)-step loop on a large prime).
        ("num_cameras", 10**400),
        ("num_cameras", 2**61 - 1),
        ("camera_width", 0),
        ("camera_height", -4),
        ("scene_sample_budget", 0),
        ("scene_sample_budget", -3),
        # Caught when the config is built, not inside run() (the
        # sender's codec config, the split's byte allocation).
        ("gop_size", 0),
        ("gop_size", -1),
        ("split_step", math.nan),
        ("split_step", math.inf),
        ("split_step", 0.0),
    ],
)
def test_config_rejects_out_of_range_at_construction(field, value):
    with pytest.raises(ValueError, match=field):
        SessionConfig(**{field: value})
