"""The two-party call object, one outcome at a time.

``LiVoSession.run`` is a short loop over ``_Call``; these tests build
the call on a 3-camera 32 x 24 rig and drive ``send`` and
``resolve_head`` directly through each branch, which before the call
was an object could only be reached by replaying a whole session under
a fault plan that happened to hit it.
"""

import dataclasses

import numpy as np
import pytest

from repro.capture.dataset import load_video
from repro.capture.rgbd import MultiViewFrame, RGBDFrame
from repro.codec.frame import EncodedFrame
from repro.core.config import SessionConfig
from repro.core.session import LiVoSession, _Call
from repro.faults import degradation
from repro.faults.degradation import LEVEL_HALF_FPS, ResilienceConfig
from repro.faults.plan import EncoderFault, FaultPlan, FrameCorruption
from repro.obs.timeline import stage_timings
from repro.prediction.pose import user_traces_for_video
from repro.transport.traces import constant_trace

INTERVAL = 1.0 / 30.0


@pytest.fixture(scope="module")
def workload():
    _, scene = load_video("office1", sample_budget=3000)
    return scene, user_traces_for_video("office1", 16)[0]


@pytest.fixture
def make_call(workload, monkeypatch):
    """Build a call; ``observed`` / ``released`` / ``sent`` spy on the
    watchdog and the channel without changing what they do.  Every
    call's scoring thread is joined when the test ends."""
    calls = []

    def build(fault_plan=None, **config):
        scene, user = workload
        session = LiVoSession(
            SessionConfig(
                num_cameras=3, camera_width=32, camera_height=24,
                scene_sample_budget=3000, gop_size=8, quality_every=1, **config,
            )
        )
        replay = session._open(scene, user, constant_trace(100.0), 6)
        call = _Call(session, replay, fault_plan=fault_plan)
        call.observed, call.released, call.sent = [], [], {}
        if call.watchdog is not None:
            observe = call.watchdog.observe
            monkeypatch.setattr(
                call.watchdog, "observe",
                lambda on_time, now: call.observed.append(on_time) or observe(on_time, now),
            )
        release, send = call.channel.release_frame, call.channel.send_frame
        monkeypatch.setattr(
            call.channel, "release_frame",
            lambda sequence: call.released.append(sequence) or release(sequence),
        )

        def send_frame(stream_id, sequence, data, now):
            call.sent[stream_id, sequence] = data
            send(stream_id, sequence, data, now)

        monkeypatch.setattr(call.channel, "send_frame", send_frame)
        calls.append(call)
        return call

    yield build
    for call in calls:
        call.quality.close()


def _send(call, count):
    for sequence in range(count):
        call.send(sequence, sequence * INTERVAL)


def _arrive(call, sequence, color_s, depth_s):
    """The pair's bytes as the channel carried them, with the test's
    choice of when each stream's last packet arrived."""
    call.channel.process_until(1.0)
    carried = {
        d.stream_id: d for d in call.channel._deliveries if d.frame_sequence == sequence
    }
    call.pair_arrivals[sequence] = {
        0: dataclasses.replace(carried[0], completion_time_s=color_s),
        1: dataclasses.replace(carried[1], completion_time_s=depth_s),
    }


def _sent_type(call, sequence):
    """Frame type of the color frame that went on the wire."""
    return EncodedFrame.from_bytes(call.sent[0, sequence]).frame_type.name


def _assert_pruned(call, sequence):
    assert sequence not in call.pending
    assert sequence not in call.captures
    assert not any(
        sequence in a._frames or sequence in a._completed for a in call.channel._assemblers
    )
    assert sequence not in call.pair_arrivals
    assert call.released[-1] == sequence


def _categories(call):
    return [event.category for event in call.events]


def _stage_counts(call, names):
    """Items each named stage served, read off the call's trace."""
    timings = stage_timings(call.replay.tracer.spans(), names)
    return {name: timing.count for name, timing in timings.items()}


class TestResolveHead:
    def test_delivered_on_time_renders_and_scores(self, make_call):
        call = make_call()
        _send(call, 1)
        assert not call.resolve_head(0.02, final=False)  # nothing arrived yet
        assert list(call.pending) == [0] and call.released == []
        _arrive(call, 0, 0.04, 0.05)
        assert call.resolve_head(0.05, final=False)
        record = call.records[0]
        assert record.rendered and not record.stalled and not record.frozen
        assert record.delivery_time_s == 0.05
        assert call.observed == [True]
        assert call.events == []
        _assert_pruned(call, 0)
        call.quality.collect(final=True)
        assert record.pssim_geometry is not None  # quality_every=1: sampled
        assert _stage_counts(call, ["quality", "decode"]) == {"quality": 1, "decode": 1}

    def test_delivered_late_is_a_stall_not_a_render(self, make_call):
        call = make_call()
        _send(call, 1)
        # Playout = arrival + 100 ms jitter buffer; the budget is 250 ms.
        _arrive(call, 0, 0.10, 0.16)
        assert call.resolve_head(0.2, final=False)
        record = call.records[0]
        assert not record.rendered and record.stalled and not record.frozen
        assert record.delivery_time_s == 0.16
        assert call.observed == [False]
        assert _stage_counts(call, ["quality"]) == {"quality": 0}
        _assert_pruned(call, 0)

    @pytest.mark.parametrize("hardened", [True, False])
    def test_final_drain_then_undecodable_pair(self, make_call, hardened):
        call = make_call(resilience=ResilienceConfig(enabled=hardened))
        assert (call.watchdog is not None) == hardened
        _send(call, 3)
        _arrive(call, 0, 0.04, 0.05)
        assert call.resolve_head(0.05, final=False)
        # Frame 1 never arrives and was not abandoned: only the final
        # drain resolves it -- over the last good frame when hardened.
        assert not call.resolve_head(0.1, final=False)
        assert call.resolve_head(0.1, final=True)
        lost = call.records[1]
        assert not lost.rendered and lost.stalled and lost.frozen == hardened
        assert lost.delivery_time_s is None
        _assert_pruned(call, 1)
        # Frame 2 predicts from the frame the decoder never saw.
        _arrive(call, 2, 0.10, 0.11)
        assert not call.rx_request_intra
        assert call.resolve_head(0.12, final=False)
        broken = call.records[2]
        assert not broken.rendered and broken.stalled
        assert broken.frozen == hardened
        assert call.rx_request_intra == hardened  # PLI only when hardened
        assert _categories(call) == (["frame_freeze"] if hardened else [])
        if hardened:
            assert call.events[0].sequence == 2 and call.events[0].time_s == 0.12
            assert call.observed == [True, False, False]
        _assert_pruned(call, 2)
        assert not call.pending

    def test_corrupted_pair_is_undecodable_because_parsing_raised(
        self, make_call, monkeypatch
    ):
        """The corruption fault mangles the color buffer the channel
        carried; the pair is lost because that buffer no longer parses."""
        call = make_call(fault_plan=FaultPlan(seed=1, corrupted_frames=(FrameCorruption(0),)))
        _send(call, 1)
        _arrive(call, 0, 0.04, 0.05)
        parse, raised = EncodedFrame.from_bytes, []

        def spy(data):
            try:
                return parse(data)
            except ValueError as error:
                raised.append(str(error))
                raise

        monkeypatch.setattr(EncodedFrame, "from_bytes", staticmethod(spy))
        assert call.resolve_head(0.05, final=False)
        assert raised == ["truncated frame payload"]
        record = call.records[0]
        assert not record.rendered and record.stalled and not record.frozen
        assert call.receiver.decode_failures == 1 and call.rx_request_intra
        assert _categories(call) == ["corrupt_frame"]
        assert call.observed == [False]
        _assert_pruned(call, 0)

    def test_pli_flag_forces_the_next_encode_intra_then_clears(self, make_call):
        call = make_call()
        _send(call, 2)
        call.rx_request_intra = True
        call.send(2, 2 * INTERVAL)
        assert not call.rx_request_intra
        assert _sent_type(call, 2) == "INTRA"
        assert _sent_type(call, 1) != "INTRA"

    def test_abandoned_stream_freezes_and_logs(self, make_call, monkeypatch):
        call = make_call()
        _send(call, 2)
        _arrive(call, 0, 0.04, 0.05)
        assert call.resolve_head(0.05, final=False)
        monkeypatch.setattr(
            call.channel, "frame_abandoned",
            lambda stream_id, sequence: (stream_id, sequence) == (1, 1),
        )
        call.pair_arrivals[1] = {0: 0.08}  # color made it, depth gave up
        assert call.resolve_head(0.3, final=False)
        record = call.records[1]
        assert record.frozen and record.stalled and not record.rendered
        assert _categories(call) == ["frame_abandoned"]
        assert call.events[0].sequence == 1 and call.events[0].time_s == 0.3
        assert call.observed == [True, False]
        _assert_pruned(call, 1)

    def test_watchdog_transition_becomes_a_ladder_event(self, make_call, monkeypatch):
        monkeypatch.setattr(degradation, "WATCHDOG_MISSES", 2)
        call = make_call()
        _send(call, 2)
        for sequence in range(2):
            assert call.resolve_head(1.0, final=True)
        assert _categories(call) == ["degrade_step"]
        assert call.events[0].detail == "ladder -> half-fps"
        assert call.watchdog.level == LEVEL_HALF_FPS

    def test_frame_fates_reach_the_tracer_through_one_door(self, make_call):
        call = make_call()
        tracer = call.tracer
        assert tracer is call.replay.tracer
        _send(call, 3)
        _arrive(call, 0, 0.04, 0.05)
        _arrive(call, 1, 0.30, 0.40)
        call.resolve_head(0.05, final=False)
        call.resolve_head(0.4, final=False)
        call.resolve_head(0.5, final=True)
        roots = {s.trace_id: s for s in tracer.spans() if s.category == "frame"}
        assert [roots[i].status for i in range(3)] == ["rendered", "late", "frozen"]
        # Rendered: on screen one interval from the playout point.
        assert roots[0].end_s == pytest.approx(0.05 + 0.1 + INTERVAL)
        assert roots[1].end_s == pytest.approx(0.40 + 0.1)
        renders = [s for s in tracer.spans() if s.name == "render"]
        assert [s.trace_id for s in renders] == [0]
        # Frame 0's quality:pointssim span closes on the scoring thread.
        call.quality.collect(final=True)
        assert tracer.open_spans() == []


def _empty_frame(call):
    cameras = call.replay.source.rig.cameras
    height, width = cameras[0].intrinsics.height, cameras[0].intrinsics.width
    views = [
        RGBDFrame(
            np.zeros((height, width, 3), dtype=np.uint8),
            np.zeros((height, width), dtype=np.uint16),
            camera_id=index, sequence=0,
        )
        for index in range(len(cameras))
    ]
    return MultiViewFrame(views, sequence=0)


class TestSend:
    def test_normal_tick_sends_the_pair(self, make_call):
        call = make_call()
        call.send(0, 0.0)
        record = call.records[0]
        assert record.stalled and not record.rendered  # in flight
        assert record.wire_bytes > 0 and record.total_points > 0
        assert record.split is not None and record.degradation_level == 0
        assert list(call.pending) == [0]
        assert set(call.sent) == {(0, 0), (1, 0)} and set(call.captures) == {0}
        assert call.channel.bytes_sent_per_stream[0] > 0
        assert call.channel.bytes_sent_per_stream[1] > 0
        assert list(_stage_counts(call, [s.name for s in call.graph.stages]).items()) == [
            ("capture", 1), ("prepare", 1), ("encode", 1),
        ]

    def test_skipped_tick_runs_no_stage(self, make_call):
        call = make_call()
        call.watchdog.level = LEVEL_HALF_FPS
        call.send(1, INTERVAL)
        record = call.records[1]
        assert record.skipped and not record.stalled and not record.rendered
        assert record.degradation_level == LEVEL_HALF_FPS
        assert not call.pending and not call.sent and not call.captures
        assert list(_stage_counts(call, [s.name for s in call.graph.stages]).values()) == [
            0, 0, 0,
        ]
        call.send(2, 2 * INTERVAL)  # even ticks still run at half fps
        assert list(call.pending) == [2]

    def test_encode_failure_is_a_stall_with_an_event(self, make_call):
        call = make_call(fault_plan=FaultPlan(seed=1, encoder_faults=(EncoderFault(0),)))
        call.send(0, 0.0)
        record = call.records[0]
        assert record.encode_failed and record.stalled and not record.rendered
        assert record.wire_bytes == 0
        assert _categories(call) == ["encode_failure"]
        assert call.events[0].sequence == 0
        assert call.observed == [False]
        assert not call.pending and not call.sent
        call.send(1, INTERVAL)  # the next frame restarts the chain
        assert _sent_type(call, 1) == "INTRA"

    def test_empty_capture_is_skippable_not_a_failure(self, make_call, monkeypatch):
        call = make_call()
        empty = _empty_frame(call)
        monkeypatch.setattr(call.replay.source, "capture", lambda sequence: empty)
        call.send(0, 0.0)
        record = call.records[0]
        assert record.empty and not record.stalled and not record.encode_failed
        assert record.total_points == 0 and record.wire_bytes == 0
        assert call.events == [] and call.observed == []
        assert not call.pending and not call.sent
        assert call.channel.bytes_sent_per_stream == [0, 0]
