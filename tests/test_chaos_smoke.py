"""Fast end-to-end chaos smoke: a faulted session must complete,
degrade gracefully, and replay byte-identically from the same plan."""

import dataclasses

import pytest

from repro.analysis.resilience import summarize_resilience
from repro.capture.dataset import load_video
from repro.core.config import SessionConfig
from repro.core.session import LiVoSession
from repro.faults.degradation import ResilienceConfig
from repro.faults.plan import (
    BurstLossWindow,
    CameraFault,
    EncoderFault,
    FaultPlan,
    FrameCorruption,
    LinkOutage,
)
from repro.prediction.pose import user_traces_for_video
from repro.transport.traces import trace_1

FRAMES = 45


def _plan() -> FaultPlan:
    """chaos_plan compressed into a 1.5 s session (45 frames)."""
    return FaultPlan(
        seed=11,
        camera_faults=(
            CameraFault(1, 0.2, 0.5, "dropout"),
            CameraFault(2, 0.3, 0.6, "stale"),
        ),
        link_outages=(LinkOutage(0.6, 0.9),),
        burst_loss=(BurstLossWindow(1.0, 1.3, p_enter=0.1, p_exit=0.3),),
        encoder_faults=(EncoderFault(10),),
        corrupted_frames=(FrameCorruption(20),),
    )


@pytest.fixture(scope="module")
def workload():
    config = SessionConfig(
        num_cameras=4, camera_width=32, camera_height=24,
        scene_sample_budget=6000, gop_size=10, quality_every=6,
    )
    _, scene = load_video("office1", sample_budget=6000)
    user = user_traces_for_video("office1", FRAMES + 10)[0]
    return config, scene, user


@pytest.fixture(scope="module")
def chaos_report(workload):
    config, scene, user = workload
    return LiVoSession(config).run(
        scene, user, trace_1(duration_s=5), FRAMES, fault_plan=_plan()
    )


class TestChaosSmoke:
    def test_survives_every_fault_family(self, chaos_report):
        report = chaos_report
        assert report.num_frames == FRAMES
        assert report.rendered_frames > 0
        counts = report.fault_counts()
        assert counts.get("camera_dropout") == 1
        assert counts.get("camera_stale") == 1
        assert counts.get("link_outage") == 1 and counts.get("link_outage_end") == 1
        assert counts.get("burst_loss") == 1
        assert counts.get("encode_failure") == 1
        # The corrupted pair either reaches the receiver (corrupt_frame
        # + frame_freeze) or died on the faulted link first.
        assert counts.get("corrupt_frame", 0) + counts.get("frame_abandoned", 0) > 0

    def test_degradation_ladder_engaged_and_recovered(self, chaos_report):
        counts = chaos_report.fault_counts()
        assert counts.get("degrade_step", 0) >= 1
        assert counts.get("recover_step", 0) >= 1
        assert chaos_report.skipped_frames > 0
        assert chaos_report.frames_survived_degraded > 0
        assert len(chaos_report.degradation_episodes()) >= 1

    def test_encode_failure_recovery_marks_frame(self, chaos_report):
        failed = [f for f in chaos_report.frames if f.encode_failed]
        assert [f.sequence for f in failed] == [10]
        assert failed[0].stalled and not failed[0].rendered

    def test_resilience_summary(self, chaos_report):
        summary = summarize_resilience([chaos_report], sessions_attempted=2)
        assert summary.crash_free_rate == 0.5
        assert summary.frames_survived_degraded == chaos_report.frames_survived_degraded
        assert summary.total_fault_events > 0
        assert set(summary.row()) >= {"crash_free%", "mttr_s", "survived"}

    def test_identical_plan_replays_byte_identically(self, workload, chaos_report):
        """Determinism: the same seed + plan reproduces the exact
        SessionReport -- every frame record, event, and metric."""
        config, scene, user = workload
        again = LiVoSession(config).run(
            scene, user, trace_1(duration_s=5), FRAMES, fault_plan=_plan()
        )
        assert dataclasses.asdict(again) == dataclasses.asdict(chaos_report)

    def test_clean_run_matches_no_plan_run(self, workload):
        """An empty fault plan is a no-op: identical to running with no
        plan at all (the hardened loop preserves seed behavior)."""
        config, scene, user = workload
        with_empty = LiVoSession(config).run(
            scene, user, trace_1(duration_s=5), 12, fault_plan=FaultPlan()
        )
        without = LiVoSession(config).run(scene, user, trace_1(duration_s=5), 12)
        assert dataclasses.asdict(with_empty) == dataclasses.asdict(without)

    def test_brittle_build_crashes_where_hardened_survives(self, workload):
        """resilience.enabled=False reproduces the seed's behavior: an
        undecodable pair raises instead of freezing."""
        config, scene, user = workload
        brittle = dataclasses.replace(
            config, resilience=ResilienceConfig(enabled=False, ladder_enabled=False)
        )
        plan = FaultPlan(seed=11, corrupted_frames=(FrameCorruption(5),))
        with pytest.raises(Exception):
            LiVoSession(brittle).run(
                scene, user, trace_1(duration_s=5), 12, fault_plan=plan
            )
