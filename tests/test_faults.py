"""Unit tests for the fault-injection subsystem (repro.faults)."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.capture.rgbd import MultiViewFrame, RGBDFrame
from repro.codec.frame import HEADER_BYTES, EncodedFrame, FrameType, PixelFormat
from repro.faults import degradation
from repro.faults.degradation import (
    CHROMA_BUDGET_SCALE,
    FPS_DIVISOR,
    LEVEL_CHROMA_LITE,
    LEVEL_COARSE_VOXEL,
    LEVEL_HALF_FPS,
    LEVEL_NORMAL,
    MAX_LEVEL,
    RECOVER_HYSTERESIS,
    VOXEL_COARSEN,
    WATCHDOG_MISSES,
    StallWatchdog,
    level_name,
)
from repro.faults.injector import FaultInjector, GilbertElliott
from repro.faults.plan import (
    BurstLossWindow,
    CameraFault,
    EncoderFault,
    FaultPlan,
    FrameCorruption,
    LinkOutage,
    chaos_plan,
)
from repro.scenario.spec import ScenarioSpec
from repro.scenario.zoo import get_scenario
from repro.transport.packet import Packet


def _spec_with(plan: FaultPlan) -> ScenarioSpec:
    return replace(get_scenario("clean-baseline"), faults=plan)


def _packet(send_time_s: float, sequence: int = 0) -> Packet:
    return Packet(
        sequence=sequence,
        stream_id=0,
        frame_sequence=0,
        fragment=0,
        num_fragments=1,
        size_bytes=1200,
        send_time_s=send_time_s,
    )


def _multiview(num_cameras: int = 3, sequence: int = 0) -> MultiViewFrame:
    rng = np.random.default_rng(0)
    views = [
        RGBDFrame(
            rng.integers(1, 255, (4, 4, 3), dtype=np.uint8),
            rng.integers(500, 4000, (4, 4), dtype=np.uint16),
            camera_id=camera_id,
            sequence=sequence,
            timestamp_s=sequence / 30.0,
        )
        for camera_id in range(num_cameras)
    ]
    return MultiViewFrame(views, sequence=sequence, timestamp_s=sequence / 30.0)


class TestFaultPlan:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            CameraFault(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            CameraFault(0, -0.1, 1.0)
        with pytest.raises(ValueError):
            CameraFault(0, 0.0, 1.0, mode="explode")
        with pytest.raises(ValueError):
            LinkOutage(2.0, 1.0)
        with pytest.raises(ValueError):
            BurstLossWindow(0.0, 1.0, p_exit=0.0)
        with pytest.raises(ValueError):
            EncoderFault(-1)
        with pytest.raises(ValueError, match="seed"):
            FaultPlan(seed=-3)

    def test_window_activity_half_open(self):
        fault = CameraFault(0, 1.0, 2.0)
        assert not fault.active(0.99)
        assert fault.active(1.0)
        assert fault.active(1.99)
        assert not fault.active(2.0)

    def test_plan_coerces_lists_and_is_empty(self):
        plan = FaultPlan(camera_faults=[CameraFault(0, 0.0, 1.0)])
        assert isinstance(plan.camera_faults, tuple)
        assert not plan.is_empty
        assert FaultPlan().is_empty

    def test_chaos_plan_covers_every_family(self):
        plan = chaos_plan()
        assert plan.camera_faults and plan.link_outages and plan.burst_loss
        assert plan.encoder_faults and plan.corrupted_frames


class TestGilbertElliott:
    def test_deterministic_given_seed(self):
        window = BurstLossWindow(0.0, 1.0, p_enter=0.3, p_exit=0.3)
        a = GilbertElliott(window, np.random.default_rng(5))
        b = GilbertElliott(window, np.random.default_rng(5))
        assert [a.step() for _ in range(200)] == [b.step() for _ in range(200)]

    def test_burstiness(self):
        """Losses cluster: with a sticky bad state, the loss sequence
        contains runs rather than isolated drops."""
        window = BurstLossWindow(0.0, 1.0, p_enter=0.1, p_exit=0.2, loss_in_bad=1.0)
        chain = GilbertElliott(window, np.random.default_rng(1))
        losses = [chain.step() for _ in range(2000)]
        assert 0.1 < np.mean(losses) < 0.9
        runs = [
            sum(1 for _ in group)
            for lost, group in __import__("itertools").groupby(losses)
            if lost
        ]
        assert max(runs) >= 3  # bursts, not i.i.d. singletons


class TestFaultInjector:
    def test_dropout_zeroes_view(self):
        plan = FaultPlan(camera_faults=(CameraFault(1, 0.0, 1.0, "dropout"),))
        injector = FaultInjector(plan)
        faulted, modes = injector.apply_camera_faults(_multiview(), 0.5)
        assert modes == {1: "dropout"}
        assert not faulted.views[1].color.any()
        assert not faulted.views[1].depth_mm.any()
        assert faulted.views[0].color.any()  # healthy views untouched

    def test_stale_replays_last_healthy_view(self):
        plan = FaultPlan(camera_faults=(CameraFault(1, 1.0, 2.0, "stale"),))
        injector = FaultInjector(plan)
        healthy = _multiview(sequence=0)
        injector.apply_camera_faults(healthy, 0.0)  # caches healthy views
        later = _multiview(sequence=1)
        faulted, modes = injector.apply_camera_faults(later, 1.5)
        assert modes == {1: "stale"}
        np.testing.assert_array_equal(faulted.views[1].color, healthy.views[1].color)
        assert faulted.views[1].sequence == 1  # metadata follows the tick

    def test_stale_without_cache_degrades_to_dropout(self):
        plan = FaultPlan(camera_faults=(CameraFault(0, 0.0, 1.0, "stale"),))
        injector = FaultInjector(plan)
        faulted, _ = injector.apply_camera_faults(_multiview(), 0.0)
        assert not faulted.views[0].color.any()

    def test_link_outage_drops_everything(self):
        injector = FaultInjector(FaultPlan(link_outages=(LinkOutage(1.0, 2.0),)))
        assert injector.link_drop(_packet(1.5))
        assert not injector.link_drop(_packet(0.5))
        assert not injector.link_drop(_packet(2.5))
        assert injector.link_fault_drops == 1
        assert injector.link_outage_active(1.5)
        assert not injector.link_outage_active(2.5)

    def test_scheduled_faults_by_sequence(self):
        plan = FaultPlan(
            encoder_faults=(EncoderFault(3),), corrupted_frames=(FrameCorruption(5),)
        )
        injector = FaultInjector(plan)
        assert injector.encode_fails(3) and not injector.encode_fails(4)
        assert injector.corrupts_pair(5) and not injector.corrupts_pair(3)

    def test_corrupt_frame_is_mangled_copy(self):
        frame = EncodedFrame(
            frame_type=FrameType.INTRA,
            pixel_format=PixelFormat.RGB8,
            qp=20,
            sequence=0,
            height=8,
            width=8,
            payload=bytes(range(200)),
        )
        injector = FaultInjector(FaultPlan(seed=3))
        data = frame.to_bytes()
        mangled = injector.corrupt_frame(data)
        # The header survives; the payload region is cut and flipped...
        assert mangled[:HEADER_BYTES] == data[:HEADER_BYTES]
        assert mangled[HEADER_BYTES:] != frame.payload
        assert len(mangled) < len(data)
        assert data == frame.to_bytes()  # original untouched
        # ...so the buffer no longer parses.
        with pytest.raises(ValueError, match="truncated frame payload"):
            EncodedFrame.from_bytes(mangled)


def quick_watchdog(monkeypatch, misses=1, hysteresis=None) -> StallWatchdog:
    """A watchdog whose ladder steps after ``misses`` misses (and
    recovers after ``hysteresis`` on-time frames, when given)."""
    monkeypatch.setattr(degradation, "WATCHDOG_MISSES", misses)
    if hysteresis is not None:
        monkeypatch.setattr(degradation, "RECOVER_HYSTERESIS", hysteresis)
    return StallWatchdog()


class TestStallWatchdog:
    def test_steps_down_after_consecutive_misses(self):
        dog = StallWatchdog()
        for _ in range(WATCHDOG_MISSES - 1):
            assert dog.observe(False) is None
        assert dog.observe(False) == LEVEL_HALF_FPS
        assert dog.level == LEVEL_HALF_FPS

    def test_on_time_resets_miss_count(self):
        dog = StallWatchdog()
        for _ in range(WATCHDOG_MISSES - 1):
            dog.observe(False)
        dog.observe(True)
        for _ in range(WATCHDOG_MISSES - 1):
            assert dog.observe(False) is None  # streak restarted
        assert dog.level == LEVEL_NORMAL

    def test_hysteresis_recovery(self):
        dog = StallWatchdog()
        for _ in range(WATCHDOG_MISSES):
            dog.observe(False)
        assert dog.level == LEVEL_HALF_FPS
        for _ in range(RECOVER_HYSTERESIS - 1):
            assert dog.observe(True) is None
        assert dog.observe(True) == LEVEL_NORMAL
        assert dog.steps_down == 1 and dog.steps_up == 1

    def test_ladder_caps_at_max_level(self, monkeypatch):
        monkeypatch.setattr(degradation, "MAX_LEVEL", LEVEL_HALF_FPS)
        dog = quick_watchdog(monkeypatch)
        dog.observe(False)
        for _ in range(10):
            assert dog.observe(False) is None
        assert dog.level == LEVEL_HALF_FPS

    def test_level_knobs(self):
        dog = StallWatchdog()

        def step_down():
            for _ in range(WATCHDOG_MISSES):
                dog.observe(False)

        assert not dog.skips_tick(1)
        assert dog.voxel_scale() == 1.0 and dog.color_budget_scale() == 1.0
        step_down()  # -> half fps
        assert dog.skips_tick(1) and not dog.skips_tick(FPS_DIVISOR)
        step_down()  # -> coarse voxel
        assert dog.voxel_scale() == VOXEL_COARSEN
        step_down()  # -> chroma lite
        assert dog.color_budget_scale() == CHROMA_BUDGET_SCALE
        assert dog.level == LEVEL_CHROMA_LITE

    def test_level_names(self):
        assert level_name(LEVEL_NORMAL) == "normal"
        assert level_name(LEVEL_COARSE_VOXEL) == "coarse-voxel"
        assert level_name(99) == "level-99"

    def test_config_validation(self):
        # The ladder's tuning is module constants; they stay inside the
        # ranges its logic assumes.
        assert WATCHDOG_MISSES >= 1 and RECOVER_HYSTERESIS >= 1
        assert LEVEL_NORMAL <= MAX_LEVEL <= LEVEL_CHROMA_LITE
        assert FPS_DIVISOR >= 2
        assert 0.0 < CHROMA_BUDGET_SCALE <= 1.0


class TestFaultPlanValidation:
    """Construction-time validation (PR6): malformed plans fail loudly."""

    def test_same_camera_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlapping camera faults"):
            FaultPlan(
                camera_faults=(
                    CameraFault(1, 0.0, 1.0, "dropout"),
                    CameraFault(1, 0.5, 1.5, "stale"),
                )
            )

    def test_different_camera_overlap_allowed(self):
        plan = FaultPlan(
            camera_faults=(
                CameraFault(1, 0.0, 1.0, "dropout"),
                CameraFault(2, 0.5, 1.5, "stale"),
            )
        )
        assert len(plan.camera_faults) == 2

    def test_touching_windows_allowed(self):
        plan = FaultPlan(
            link_outages=(LinkOutage(0.0, 1.0), LinkOutage(1.0, 2.0))
        )
        assert len(plan.link_outages) == 2

    def test_overlapping_outages_rejected(self):
        with pytest.raises(ValueError, match="overlapping link outages"):
            FaultPlan(link_outages=(LinkOutage(0.0, 1.0), LinkOutage(0.9, 2.0)))
        with pytest.raises(ValueError, match="overlapping link outages"):
            FaultPlan(link_outages=(LinkOutage(0, 10**400), LinkOutage(1, 2)))  # no float

    def test_overlapping_burst_windows_rejected(self):
        with pytest.raises(ValueError, match="overlapping burst-loss"):
            FaultPlan(
                burst_loss=(
                    BurstLossWindow(0.0, 1.0),
                    BurstLossWindow(0.5, 1.5),
                )
            )

    def test_duplicate_encoder_faults_rejected(self):
        with pytest.raises(ValueError, match="duplicate encoder fault"):
            FaultPlan(encoder_faults=(EncoderFault(5), EncoderFault(5)))

    def test_duplicate_corruptions_rejected(self):
        with pytest.raises(ValueError, match="duplicate frame corruption"):
            FaultPlan(corrupted_frames=(FrameCorruption(3), FrameCorruption(3)))

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(link_outages=(LinkOutage(2.0, 1.0),))
        with pytest.raises(ValueError):
            FaultPlan(camera_faults=(CameraFault(0, 1.0, 1.0, "dropout"),))

    def test_roundtrip_through_dict(self):
        """A plan serializes with the scenario spec that carries it."""
        spec = _spec_with(chaos_plan())
        data = json.loads(json.dumps(spec.to_dict()))
        assert data["faults"]["encoder_faults"] == [12]  # a one-field fault is its value
        rebuilt = ScenarioSpec.from_dict(data)
        assert rebuilt.faults == chaos_plan()
        assert rebuilt.to_dict() == spec.to_dict()

    def test_empty_roundtrip(self):
        spec = _spec_with(FaultPlan())
        assert ScenarioSpec.from_dict(spec.to_dict()).faults.is_empty


class TestWatchdogMetrics:
    """Ladder state exported as gauges/counters (PR6)."""

    def test_time_per_rung_accounting(self, monkeypatch):
        dog = quick_watchdog(monkeypatch, misses=1, hysteresis=2)
        dog.observe(False, now=1.0)   # 0..1 at normal, then -> half-fps
        dog.observe(True, now=2.0)    # 1..2 at half-fps
        dog.observe(True, now=3.0)    # 2..3 at half-fps, then -> normal
        dog.finalize(5.0)             # 3..5 at normal
        assert dog.time_at_level[LEVEL_NORMAL] == pytest.approx(3.0)
        assert dog.time_at_level[LEVEL_HALF_FPS] == pytest.approx(2.0)

    def test_metrics_into_registry(self, monkeypatch):
        from repro.obs.metrics import MetricsRegistry

        dog = quick_watchdog(monkeypatch)
        dog.observe(False, now=0.5)
        dog.finalize(1.0)
        registry = MetricsRegistry()
        dog.metrics_into(registry)
        assert registry.gauge("ladder.level").value == float(LEVEL_HALF_FPS)
        assert registry.counter("ladder.steps_down").value == 1
        assert registry.counter("ladder.transitions").value == 1
        names = registry.names()
        assert "ladder.time_at.normal_s" in names
        assert "ladder.time_at.chroma-lite_s" in names

    def test_untimed_observe_unchanged(self):
        dog = StallWatchdog()
        for _ in range(WATCHDOG_MISSES):
            dog.observe(False)
        assert dog.level == LEVEL_HALF_FPS
        assert dog.time_at_level == {}
