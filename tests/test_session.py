"""Integration tests: full replay sessions for every scheme.

These run small but complete sessions (capture -> encode -> network ->
decode -> reconstruct -> score), asserting the qualitative claims the
paper's evaluation rests on.
"""

from dataclasses import replace

import pytest

from repro.capture.dataset import load_video
from repro.core.config import SessionConfig
from repro.core.session import LiVoSession, ground_truth_cloud, run_scheme
from repro.prediction.pose import user_traces_for_video
from repro.transport.traces import trace_1, trace_2

FRAMES = 24


@pytest.fixture(scope="module")
def workload():
    config = SessionConfig(
        num_cameras=6, camera_width=48, camera_height=36,
        scene_sample_budget=15000, gop_size=12, quality_every=4,
    )
    _, scene = load_video("office1", sample_budget=15000)
    user = user_traces_for_video("office1", FRAMES + 10)[0]
    return config, scene, user


class TestLiVoSession:
    def test_runs_to_completion(self, workload):
        config, scene, user = workload
        report = LiVoSession(config).run(
            scene, user, trace_1(duration_s=10), FRAMES, video_name="office1"
        )
        assert report.num_frames == FRAMES
        assert report.scheme == "LiVo"

    def test_high_quality_on_fast_trace(self, workload):
        config, scene, user = workload
        report = LiVoSession(config).run(
            scene, user, trace_1(duration_s=10), FRAMES, video_name="office1"
        )
        assert report.stall_rate < 0.25
        geometry, _ = report.pssim_geometry(stalls_as_zero=False)
        assert geometry > 70.0

    def test_split_favors_depth(self, workload):
        config, scene, user = workload
        report = LiVoSession(config).run(
            scene, user, trace_2(duration_s=10), FRAMES, video_name="office1"
        )
        assert 0.5 <= report.mean_split <= 0.9

    def test_culling_reduces_data(self, workload):
        config, scene, user = workload
        from dataclasses import replace

        livo = LiVoSession(config).run(
            scene, user, trace_2(duration_s=10), FRAMES, video_name="office1"
        )
        nocull_config = replace(config, scheme="LiVo-NoCull")
        nocull = LiVoSession(nocull_config).run(
            scene, user, trace_2(duration_s=10), FRAMES, video_name="office1"
        )
        assert nocull.scheme == "LiVo-NoCull"
        assert livo.mean_culled_fraction < 1.0
        assert nocull.mean_culled_fraction == pytest.approx(1.0)

    def test_invalid_num_frames(self, workload):
        config, scene, user = workload
        with pytest.raises(ValueError):
            LiVoSession(config).run(scene, user, trace_1(), 0)

    def test_throughput_below_capacity(self, workload):
        config, scene, user = workload
        report = LiVoSession(config).run(
            scene, user, trace_1(duration_s=10), FRAMES, video_name="office1"
        )
        # Direct adaptation keeps sent rate near but below capacity.
        assert 0.2 < report.utilization < 1.2


class TestDracoOracleSession:
    def test_runs_at_15_fps(self, workload):
        config, scene, user = workload
        report = run_scheme(
            replace(config, scheme="Draco-Oracle"), scene, user, trace_1(duration_s=10),
            FRAMES, "office1",
        )
        assert report.scheme == "Draco-Oracle"
        assert report.fps_target == 15.0
        # Offered every other capture tick.
        assert report.num_frames == FRAMES // 2

    def test_compute_pressure_causes_stalls(self, workload):
        """The paper's central Draco finding: full scenes stall it."""
        config, scene, user = workload
        stall_rates = []
        for user_index in range(3):
            user_n = user_traces_for_video("office1", FRAMES + 10)[user_index]
            report = run_scheme(
                replace(config, scheme="Draco-Oracle"), scene, user_n, trace_2(duration_s=10),
                FRAMES, "office1",
            )
            stall_rates.append(report.stall_rate)
        assert max(stall_rates) > 0.2


class TestMeshReduceSession:
    def test_floating_frame_rate(self, workload):
        config, scene, user = workload
        report = run_scheme(
            replace(config, scheme="MeshReduce"), scene, user, trace_2(duration_s=10),
            FRAMES, "office1",
        )
        assert report.scheme == "MeshReduce"
        # No stalls by design; reduced frame rate instead.
        assert report.stall_rate == 0.0
        assert report.mean_fps < 30.0

    def test_conservative_utilization(self, workload):
        """Table 1: indirect adaptation leaves most capacity unused."""
        config, scene, user = workload
        report = run_scheme(
            replace(config, scheme="MeshReduce"), scene, user, trace_1(duration_s=10),
            FRAMES, "office1",
        )
        assert report.utilization < 0.6


class TestSchemeOrdering:
    def test_livo_beats_meshreduce_quality(self, workload):
        """Fig. 9's headline: LiVo's PSSIM geometry tops MeshReduce's."""
        config, scene, user = workload
        bw = trace_1(duration_s=10)
        livo = LiVoSession(config).run(scene, user, bw, FRAMES, video_name="office1")
        mesh = run_scheme(replace(config, scheme="MeshReduce"), scene, user, bw, FRAMES, "office1")
        livo_geometry, _ = livo.pssim_geometry()
        mesh_geometry, _ = mesh.pssim_geometry()
        assert livo_geometry > mesh_geometry


class TestGroundTruth:
    def test_ground_truth_respects_frustum(self, workload):
        config, scene, user = workload
        from repro.capture.rig import default_rig
        from repro.prediction.predictor import ViewingDevice

        rig = default_rig(num_cameras=6, width=48, height=36)
        frame = rig.capture(scene, 0)
        frustum = ViewingDevice().frustum_for(user.pose_at_frame(0))
        truth = ground_truth_cloud(frame, rig.cameras, frustum, 0.03)
        assert not truth.is_empty
        assert frustum.contains(truth.positions).all()
