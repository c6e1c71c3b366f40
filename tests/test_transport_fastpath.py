"""Transport pins: the channel and the SFU downlinks against what their
deleted batched twins produced.

There is one packet path: ``EmulatedLink.send`` admits every packet and
GCC folds in every delivered one through ``on_packet_feedback``.  The
channel's deliveries, estimates and link state are pinned to what it
produced while a batched event twin still ran beside it, and the SFU
downlinks' bursts, GCC estimates and link state to what the batched
link admission (``send_batch``) and bulk GCC feedback produced
(tests/twins.py) -- exact equality, never approx.  Also covers the
satellite fixes: zero-capacity trace handling, O(1) loss-window
counters, and per-frame bookkeeping pruning.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.capture.dataset import load_video
from repro.core.config import SessionConfig
from repro.core.session import LiVoSession
from repro.faults.plan import BurstLossWindow, FaultPlan, LinkOutage
from repro.prediction.pose import user_traces_for_video
from repro.sfu.node import SFUNode
from repro.transport.channel import WebRTCChannel, WebRTCConfig
from repro.transport.downlink import DownlinkSet
from repro.transport import link as link_module
from repro.transport.link import EmulatedLink, LinkConfig
from repro.transport.packet import Packet
from repro.transport.traces import BandwidthTrace, constant_trace, trace_1
from tests.twins import assert_pinned

# ----------------------------------------------------------------------
# Cumulative-capacity trace model
# ----------------------------------------------------------------------


def _random_trace(rng: np.random.Generator, allow_zero: bool = True) -> BandwidthTrace:
    n = int(rng.integers(2, 12))
    caps = rng.uniform(1.0, 150.0, size=n)
    if allow_zero and n > 2:
        caps[rng.integers(0, n, size=max(1, n // 3))] = 0.0
    if not np.any(caps > 0):
        caps[0] = 10.0
    return BandwidthTrace(caps, interval_s=float(rng.uniform(0.05, 1.5)))


class TestCumulativeModel:
    def test_cumulative_matches_direct_integration(self):
        trace = BandwidthTrace(np.array([10.0, 0.0, 40.0]), interval_s=0.5)
        # C(t) by brute-force Riemann sum on a fine grid.
        for t in (0.0, 0.3, 0.5, 0.7, 1.2, 1.5, 2.9, 4.1):
            grid = np.linspace(0.0, t, 20001)[:-1]
            brute = float(
                np.sum([trace.capacity_bps_at(float(g)) for g in grid]) * (t / 20000.0)
            ) if t > 0 else 0.0
            assert trace.cumulative_bits_at(t) == pytest.approx(brute, rel=1e-3, abs=1.0)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            trace = _random_trace(rng)
            targets = rng.uniform(0.0, 5.0 * trace._loop_bits, size=40)
            for target in targets:
                t = trace.time_for_cumulative(float(target))
                # C(C^-1(x)) == x up to float noise (exact where rate > 0).
                assert trace.cumulative_bits_at(t) == pytest.approx(
                    float(target), rel=1e-9, abs=1e-3
                )

    def test_zero_rate_interval_service(self):
        """A packet spilling into an outage finishes after the outage --
        the old per-interval walk burned iterations (or divided by zero
        on exact landings) here."""
        trace = BandwidthTrace(np.array([10.0, 0.0, 10.0]), interval_s=1.0)
        link = EmulatedLink(trace)
        # 100_000 bits at 10 Mbps = 10 ms; offered 5 ms before the
        # outage, half transmits before t=1.0, the rest waits for t=2.0.
        finish = link._service_finish_time(0.995, 12_500)
        assert finish == pytest.approx(2.005, abs=1e-9)

    def test_exact_boundary_landing_does_not_wait_out_outage(self):
        trace = BandwidthTrace(np.array([10.0, 0.0, 10.0]), interval_s=1.0)
        link = EmulatedLink(trace)
        # Exactly fills the remainder of the first interval.
        finish = link._service_finish_time(0.9, 125_000)
        assert finish == pytest.approx(1.0, abs=1e-9)

    def test_send_through_outage_trace(self, monkeypatch):
        monkeypatch.setattr(link_module, "MAX_QUEUE_DELAY_S", 2.0)
        trace = BandwidthTrace(np.array([20.0, 0.0, 0.0, 20.0]), interval_s=0.25)
        link = EmulatedLink(trace)
        packet = Packet(0, 0, 0, 0, 1, 1200, send_time_s=0.24)
        arrival = link.send(packet)
        assert arrival is not None and math.isfinite(arrival)


# ----------------------------------------------------------------------
# SFU downlink pins
# ----------------------------------------------------------------------


def _link_state(link: EmulatedLink):
    return (
        link.packets_sent,
        link.packets_dropped,
        link.fault_drops,
        link.socket_drops,
        link.bytes_delivered,
        link._queue_free_at,
        link._queue_free_cum,
        link._socket_fill_bytes,
        link._socket_last_arrival,
        link._rng.bit_generator.state,
    )


def _burst_size(rng: np.random.Generator) -> int:
    """Empty, one short packet, a few packets, an exact MTU multiple, or
    more than 20 packets (MTU 1200)."""
    sizes = (
        0,
        int(rng.integers(1, 1200)),
        int(rng.integers(1200, 12_000)),
        1200 * int(rng.integers(1, 30)),
        int(rng.integers(24_001, 60_000)),
    )
    return sizes[int(rng.integers(0, len(sizes)))]


def _run_downlinks(link_config: LinkConfig, bursts: int = 240, fps: float = 30.0):
    """Three receivers -- default trace, a repeating zero-capacity outage,
    a 3 Mbps trace whose queue overflows -- each fed a seeded burst per
    frame and its GCC fed as ``SFUNode.forward`` feeds it."""
    rng = np.random.default_rng(41)
    downlinks = DownlinkSet(trace_1(duration_s=5.0), link_config)
    node = SFUNode([], SessionConfig(), downlinks=downlinks)
    node.add_receiver("default")
    node.add_receiver(
        "outage", BandwidthTrace(np.array([60.0, 0.0, 0.0, 60.0, 60.0]), interval_s=0.25)
    )
    node.add_receiver("slow", constant_trace(3.0))
    sends, estimates = [], []
    for frame in range(bursts):
        now = frame / fps + float(rng.uniform(0.0, 0.004))
        for state in node.book:
            # A zero-byte burst touches neither the link nor the GCC.
            sends.append(state.offer_downlink(downlinks, now, _burst_size(rng)))
            estimates.append((state.gcc.target_rate_bps(), state.gcc.state))
    return {
        "sends": sends,
        "estimates": estimates,
        "set": (
            downlinks.bursts_sent,
            downlinks.packets_sent,
            downlinks.packets_dropped,
            downlinks.bytes_offered,
        ),
        "links": {name: _link_state(downlinks.link(name)) for name in downlinks.names},
    }


@pytest.mark.usefixtures("oracle_transform")
class TestDownlinkPins:
    @pytest.fixture(autouse=True)
    def short_queue(self, monkeypatch):
        monkeypatch.setattr(link_module, "MAX_QUEUE_DELAY_S", 0.06)

    def test_lossy_socket_buffer(self):
        config = LinkConfig(
            loss_rate=0.05, seed=19, receive_buffer_bytes=24_000, receive_drain_rate_bps=40e6,
        )
        assert_pinned("downlink:lossy_socket_buffer", _run_downlinks(config))

    def test_clean(self):
        config = LinkConfig(seed=19)
        assert_pinned("downlink:clean", _run_downlinks(config))


# ----------------------------------------------------------------------
# Channel parity (fast vs scalar event paths)
# ----------------------------------------------------------------------


class _EveryNth:
    """Stateful fault hook: drops every nth packet it inspects."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.count = 0

    def __call__(self, packet: Packet) -> bool:
        self.count += 1
        return self.count % self.n == 0


def _run_channel(
    trace_factory,
    link_config=None,
    channel_config=None,
    hook_factory=None,
    frames=40,
    fps=30.0,
):
    link = EmulatedLink(
        trace_factory(),
        link_config or LinkConfig(),
        fault_hook=hook_factory() if hook_factory else None,
    )
    channel = WebRTCChannel(link, config=channel_config or WebRTCConfig())
    rng = np.random.default_rng(17)
    deliveries, sent = [], {}
    interval = 1.0 / fps
    for sequence in range(frames):
        now = sequence * interval
        deliveries.extend(channel.poll_deliveries(now))
        # Rate-coupled frame sizes: any estimator divergence from the
        # pinned run amplifies into different packetizations immediately.
        target = channel.target_rate_bps()
        color = int(target * 0.6 / fps / 8.0)
        depth = max(1, int(target * 0.25 / fps / 8.0))
        if sequence % 11 == 5:
            color = 0  # empty (fully culled) frame -> marker packet
        for stream_id, size in enumerate((color, depth)):
            data = sent[stream_id, sequence] = rng.bytes(size)
            channel.send_frame(stream_id, sequence, data, now)
    deliveries.extend(channel.poll_deliveries(frames * interval + 5.0))
    # Every delivered frame is exactly the buffer that was sent (NACK
    # retransmits and FEC repairs included); the pin covers the rest.
    assert all(d.data == sent[d.stream_id, d.frame_sequence] for d in deliveries)
    return {
        "deliveries": [
            {k: v for k, v in dataclasses.asdict(d).items() if k != "data"} for d in deliveries
        ],
        "frames_lost": list(channel.frames_lost),
        "markers": list(channel.marker_frames),
        "bytes_per_stream": list(channel.bytes_sent_per_stream),
        "target_rate": channel.target_rate_bps(),
        "gcc_state": channel.gcc.state,
        "srtt": channel._srtt,
        "loss_window": (channel._loss_lost, channel._loss_total),
        "fec_repaired": channel.fec_repairs,
        "packets_sent": link.packets_sent,
        "packets_dropped": link.packets_dropped,
        "fault_drops": link.fault_drops,
        "socket_drops": link.socket_drops,
        "bytes_delivered": link.bytes_delivered,
        "queue_state": (link._queue_free_at, link._queue_free_cum),
    }


def _assert_channel_parity(name, **kwargs):
    assert_pinned(f"channel:{name}", _run_channel(**kwargs))


@pytest.mark.usefixtures("oracle_transform")
class TestChannelParity:
    def test_clean(self):
        _assert_channel_parity("clean", trace_factory=lambda: constant_trace(60.0))

    def test_lossy(self):
        _assert_channel_parity(
            "lossy",
            trace_factory=lambda: trace_1(duration_s=5.0),
            link_config=LinkConfig(loss_rate=0.08, seed=7),
        )

    def test_heavy_loss_few_retries(self):
        _assert_channel_parity(
            "heavy_loss_few_retries",
            trace_factory=lambda: constant_trace(40.0),
            link_config=LinkConfig(loss_rate=0.3, seed=11),
            channel_config=WebRTCConfig(nack_retries=1),
        )

    def test_fec(self):
        _assert_channel_parity(
            "fec",
            trace_factory=lambda: constant_trace(60.0),
            link_config=LinkConfig(loss_rate=0.12, seed=5),
            channel_config=WebRTCConfig(fec_group_size=4),
        )

    def test_fault_outage_window(self):
        _assert_channel_parity(
            "fault_outage_window",
            trace_factory=lambda: constant_trace(60.0),
            link_config=LinkConfig(loss_rate=0.05, seed=3),
            hook_factory=lambda: (lambda p: 0.4 <= p.send_time_s < 0.62),
        )

    def test_stateful_fault_hook(self):
        _assert_channel_parity(
            "stateful_fault_hook",
            trace_factory=lambda: constant_trace(60.0),
            hook_factory=lambda: _EveryNth(29),
        )

    def test_queue_pressure(self, monkeypatch):
        monkeypatch.setattr(link_module, "MAX_QUEUE_DELAY_S", 0.08)
        _assert_channel_parity("queue_pressure", trace_factory=lambda: constant_trace(4.0))

    def test_socket_buffer(self):
        _assert_channel_parity(
            "socket_buffer",
            trace_factory=lambda: constant_trace(80.0),
            link_config=LinkConfig(
                receive_buffer_bytes=16_000, receive_drain_rate_bps=4e6
            ),
        )

    def test_zero_capacity_outage_trace(self, monkeypatch):
        monkeypatch.setattr(link_module, "MAX_QUEUE_DELAY_S", 0.6)
        _assert_channel_parity(
            "zero_capacity_outage_trace",
            trace_factory=lambda: BandwidthTrace(
                np.array([40.0, 40.0, 0.0, 40.0, 40.0, 40.0]), interval_s=0.25
            ),
            link_config=LinkConfig(loss_rate=0.05, seed=13),
        )


# ----------------------------------------------------------------------
# Loss-window running counters (satellite regression)
# ----------------------------------------------------------------------


class TestLossWindowCounters:
    def test_counters_match_recount(self):
        link = EmulatedLink(constant_trace(40.0), LinkConfig(loss_rate=0.2, seed=21))
        channel = WebRTCChannel(link)
        for sequence in range(30):
            now = sequence / 30.0
            channel.send_frame(0, sequence, bytes(6000), now)
            channel.poll_deliveries(now)
        channel.poll_deliveries(5.0)
        lost = sum(was_lost for _, was_lost in channel._loss_events)
        total = len(channel._loss_events)
        assert total > 0
        assert (channel._loss_lost, channel._loss_total) == (lost, total)
        assert channel._loss_fraction(5.0) == lost / total

    def test_window_pruning(self):
        link = EmulatedLink(constant_trace(40.0))
        channel = WebRTCChannel(link)  # LOSS_WINDOW_S = 1.0
        channel._record_loss_event(0.0, delivered=False)
        channel._record_loss_event(0.5, delivered=True)
        assert (channel._loss_lost, channel._loss_total) == (1, 2)
        channel._record_loss_event(1.6, delivered=True)
        # Both earlier entries (0.0, 0.5 < cutoff 0.6) fell out.
        assert (channel._loss_lost, channel._loss_total) == (0, 1)
        assert channel._loss_fraction(1.6) == 0.0


# ----------------------------------------------------------------------
# Bookkeeping pruning (satellite)
# ----------------------------------------------------------------------


class TestBookkeepingPruning:
    def _drain_and_release(self, channel, frames):
        channel.poll_deliveries(10.0)
        for sequence in range(frames):
            channel.release_frame(sequence)

    def test_clean_session_bookkeeping_empty(self):
        link = EmulatedLink(constant_trace(60.0))
        channel = WebRTCChannel(link)
        for sequence in range(20):
            channel.send_frame(0, sequence, bytes(5000), sequence / 30.0)
            channel.send_frame(1, sequence, bytes(2000), sequence / 30.0)
        self._drain_and_release(channel, 20)
        assert channel._frame_send_times == {}
        assert channel._pending_nacks == {}
        assert channel._released == set()
        for assembler in channel._assemblers:
            assert assembler._frames == {}
            assert assembler._completed == set()

    def test_abandoned_frame_released_after_chains_drain(self):
        """Releasing a frame while its NACK chains are still in flight
        must defer marker cleanup: a drained chain must not re-abandon
        (duplicate frames_lost) or retransmit a dead frame."""
        link = EmulatedLink(
            constant_trace(60.0), fault_hook=lambda p: p.frame_sequence == 0
        )
        channel = WebRTCChannel(link)
        channel.send_frame(0, 0, bytes(5000), 0.0)
        channel.process_until(0.01)  # offers done; NACKs still pending
        channel.release_frame(0)
        assert (0, 0) not in channel._abandoned  # not yet abandoned at all
        channel.poll_deliveries(5.0)
        channel.release_frame(0)
        assert channel.frames_lost == [(0, 0)]
        assert channel._abandoned == set()
        assert channel._pending_nacks == {}
        assert channel._released == set()

    def test_fec_maps_pruned_after_group_accounting(self):
        link = EmulatedLink(constant_trace(60.0), fault_hook=lambda p: p.sequence == 1)
        channel = WebRTCChannel(link, config=WebRTCConfig(fec_group_size=4))
        channel.send_frame(0, 0, bytes(4000), 0.0)
        channel.poll_deliveries(3.0)
        # No per-group state outlives the group's parity: the assembler
        # let go of the completed frame's fragments.
        assert channel._assemblers[0]._frames == {}
        assert channel.fec_repairs == 1
        assert channel._fec_repaired == {(0, 0): {1}}  # kept until the frame is released
        channel.release_frame(0)
        assert channel._fec_repaired == {}


# ----------------------------------------------------------------------
# Session-level report pins
# ----------------------------------------------------------------------


def _session_report(link_config=None, fault_plan=None, frames=8):
    config = SessionConfig(
        num_cameras=4,
        camera_width=48,
        camera_height=36,
        scene_sample_budget=6_000,
        gop_size=5,
        **({"link": link_config} if link_config else {}),
    )
    _, scene = load_video("office1", sample_budget=6_000)
    user = user_traces_for_video("office1", frames + 10)[0]
    return LiVoSession(config).run(
        scene, user, trace_1(duration_s=5), frames,
        video_name="office1", fault_plan=fault_plan,
    )


@pytest.mark.usefixtures("oracle_transform")
class TestSessionReportParity:
    def test_clean_session_reports_identical(self):
        assert_pinned("transport:session_clean", _session_report().asdict())

    def test_lossy_faulted_session_reports_identical(self):
        plan = FaultPlan(
            seed=11,
            link_outages=(LinkOutage(0.2, 0.35),),
            burst_loss=(BurstLossWindow(0.4, 0.6, p_enter=0.15, p_exit=0.3),),
        )
        report = _session_report(LinkConfig(loss_rate=0.05, seed=3), plan, frames=20)
        assert_pinned("transport:session_lossy_faulted", report.asdict())
