"""Transport parity: the link's batched send vs its per-packet send,
and the channel against its pinned outputs.

``EmulatedLink.send_batch`` (the SFU downlinks' entry point) must be
*bit-identical* to ``send``: same drops, same arrival times, same RNG
stream consumption -- exact equality, never approx.  The channel has
one event path (one heap event per packet); its deliveries, estimates
and link state are pinned to what it produced while a batched twin
still ran beside it (tests/twins.py).  Also covers the satellite
fixes: zero-capacity trace handling, O(1) loss-window counters, and
per-frame bookkeeping pruning.
"""

import math

import numpy as np
import pytest

from repro.capture.dataset import load_video
from repro.core.config import SessionConfig
from repro.core.session import LiVoSession
from repro.faults.plan import BurstLossWindow, FaultPlan, LinkOutage
from repro.prediction.pose import user_traces_for_video
from repro.transport.channel import WebRTCChannel, WebRTCConfig
from repro.transport.gcc import GoogleCongestionControl
from repro.transport.link import (
    STATUS_DELIVERED,
    EmulatedLink,
    LinkConfig,
)
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

    def test_vectorized_inverse_bit_identical_to_scalar(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            trace = _random_trace(rng)
            targets = rng.uniform(0.0, 7.0 * trace._loop_bits, size=64)
            vec = trace.times_for_cumulative(targets)
            scalar = [trace.time_for_cumulative(float(x)) for x in targets]
            assert vec.tolist() == scalar

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

    def test_send_through_outage_trace(self):
        trace = BandwidthTrace(np.array([20.0, 0.0, 0.0, 20.0]), interval_s=0.25)
        link = EmulatedLink(trace, LinkConfig(max_queue_delay_s=2.0))
        packet = Packet(0, 0, 0, 0, 1, 1200, send_time_s=0.24)
        arrival = link.send(packet)
        assert arrival is not None and math.isfinite(arrival)


# ----------------------------------------------------------------------
# Link batch parity
# ----------------------------------------------------------------------


class _EveryNth:
    """Stateful fault hook: drops every nth packet it inspects."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.count = 0

    def __call__(self, packet: Packet) -> bool:
        self.count += 1
        return self.count % self.n == 0


def _mk_packets(sizes, send_time, first_seq=0):
    return [
        Packet(first_seq + i, 0, 0, i, len(sizes), int(s), send_time_s=send_time)
        for i, s in enumerate(sizes)
    ]


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


def _parity_run(trace_factory, link_config, hook_factory=None, seed=0):
    """Drive twin links through an identical mixed scalar/batched
    schedule; every burst must produce identical arrivals and state."""
    rng = np.random.default_rng(seed)
    scalar_link = EmulatedLink(
        trace_factory(), link_config, fault_hook=hook_factory() if hook_factory else None
    )
    batch_link = EmulatedLink(
        trace_factory(), link_config, fault_hook=hook_factory() if hook_factory else None
    )
    now = 0.0
    sequence = 0
    for _ in range(60):
        now += float(rng.uniform(0.0, 0.05))
        burst = int(rng.integers(1, 40))
        sizes = rng.integers(40, 1500, size=burst)
        scalar_packets = _mk_packets(sizes, now, sequence)
        batch_packets = _mk_packets(sizes, now, sequence)
        sequence += burst
        scalar_arrivals = [scalar_link.send(p) for p in scalar_packets]
        arrivals, status = batch_link.send_batch(now, sizes, batch_packets)
        for i in range(burst):
            if status[i] == STATUS_DELIVERED:
                assert scalar_arrivals[i] == arrivals[i]
            else:
                assert scalar_arrivals[i] is None
                assert np.isnan(arrivals[i])
        # Interleave the occasional lone packet (a retransmission) so
        # cumulative queue state is exercised across both call styles.
        if rng.random() < 0.4:
            now += float(rng.uniform(0.0, 0.02))
            size = int(rng.integers(40, 1500))
            lone_scalar = _mk_packets([size], now, sequence)[0]
            lone_batch = _mk_packets([size], now, sequence)[0]
            sequence += 1
            a_scalar = scalar_link.send(lone_scalar)
            a_batch = batch_link.send(lone_batch)
            assert a_scalar == a_batch
        assert _link_state(scalar_link) == _link_state(batch_link)


class TestLinkBatchParity:
    def test_clean_constant_trace(self):
        _parity_run(lambda: constant_trace(50.0), LinkConfig(), seed=1)

    def test_random_loss(self):
        _parity_run(
            lambda: trace_1(duration_s=5.0),
            LinkConfig(loss_rate=0.15, seed=9),
            seed=2,
        )

    def test_queue_overflow(self):
        _parity_run(
            lambda: constant_trace(2.0),
            LinkConfig(max_queue_delay_s=0.05, loss_rate=0.05, seed=4),
            seed=3,
        )

    def test_stateful_fault_hook(self):
        _parity_run(
            lambda: constant_trace(30.0),
            LinkConfig(loss_rate=0.1, seed=2),
            hook_factory=lambda: _EveryNth(13),
            seed=4,
        )

    def test_socket_buffer(self):
        _parity_run(
            lambda: constant_trace(80.0),
            LinkConfig(receive_buffer_bytes=6000, receive_drain_rate_bps=2e6),
            seed=5,
        )

    def test_zero_capacity_trace(self):
        _parity_run(
            lambda: BandwidthTrace(
                np.array([25.0, 0.0, 60.0, 0.0, 10.0]), interval_s=0.2
            ),
            LinkConfig(loss_rate=0.1, seed=6, max_queue_delay_s=1.0),
            seed=6,
        )

    def test_rng_block_draw_matches_sequential(self):
        """The parity contract's RNG premise: one block draw of n
        consumes the PCG64 stream exactly like n sequential draws."""
        block = np.random.default_rng(123).random(32)
        seq_rng = np.random.default_rng(123)
        assert block.tolist() == [seq_rng.random() for _ in range(32)]


# ----------------------------------------------------------------------
# Channel parity (fast vs scalar event paths)
# ----------------------------------------------------------------------


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
    deliveries = []
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
        channel.send_frame(0, sequence, color, now)
        channel.send_frame(1, sequence, depth, now)
    deliveries.extend(channel.poll_deliveries(frames * interval + 5.0))
    return {
        "deliveries": deliveries,
        "frames_lost": list(channel.frames_lost),
        "markers": list(channel.marker_frames),
        "bytes_per_stream": list(channel.bytes_sent_per_stream),
        "target_rate": channel.target_rate_bps(),
        "gcc_state": channel.gcc.state,
        "srtt": channel._srtt,
        "loss_window": (channel._loss_lost, channel._loss_total),
        "fec_repaired": channel._fec_tracker.repaired,
        "packets_sent": link.packets_sent,
        "packets_dropped": link.packets_dropped,
        "fault_drops": link.fault_drops,
        "socket_drops": link.socket_drops,
        "bytes_delivered": link.bytes_delivered,
        "queue_state": (link._queue_free_at, link._queue_free_cum),
    }


def _assert_channel_parity(name, **kwargs):
    assert_pinned(f"channel:{name}", _run_channel(**kwargs))


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

    def test_queue_pressure(self):
        _assert_channel_parity(
            "queue_pressure",
            trace_factory=lambda: constant_trace(4.0),
            link_config=LinkConfig(max_queue_delay_s=0.08),
        )

    def test_socket_buffer(self):
        _assert_channel_parity(
            "socket_buffer",
            trace_factory=lambda: constant_trace(80.0),
            link_config=LinkConfig(
                receive_buffer_bytes=16_000, receive_drain_rate_bps=4e6
            ),
        )

    def test_zero_capacity_outage_trace(self):
        _assert_channel_parity(
            "zero_capacity_outage_trace",
            trace_factory=lambda: BandwidthTrace(
                np.array([40.0, 40.0, 0.0, 40.0, 40.0, 40.0]), interval_s=0.25
            ),
            link_config=LinkConfig(loss_rate=0.05, seed=13, max_queue_delay_s=0.6),
        )


class TestGCCBatchParity:
    def test_on_feedback_batch_matches_sequential(self):
        rng = np.random.default_rng(3)
        batched = GoogleCongestionControl()
        sequential = GoogleCongestionControl()
        send_time = 0.0
        for _ in range(50):
            send_time += float(rng.uniform(0.02, 0.05))
            n = int(rng.integers(1, 30))
            base = send_time + 0.02
            arrivals = (base + np.cumsum(rng.uniform(0.0, 0.002, size=n))).tolist()
            sizes = [int(s) for s in rng.integers(100, 1300, size=n)]
            batched.on_feedback_batch(send_time, arrivals, sizes)
            for arrival, size in zip(arrivals, sizes):
                sequential.on_packet_feedback(send_time, arrival, size)
            assert batched.target_rate_bps() == sequential.target_rate_bps()
            assert batched.state == sequential.state
            assert batched._recent_bytes == sequential._recent_bytes
            assert batched._smoothed_gradient == sequential._smoothed_gradient
        assert list(batched._recent_arrivals) == list(sequential._recent_arrivals)


# ----------------------------------------------------------------------
# Loss-window running counters (satellite regression)
# ----------------------------------------------------------------------


class TestLossWindowCounters:
    def test_counters_match_recount(self):
        link = EmulatedLink(constant_trace(40.0), LinkConfig(loss_rate=0.2, seed=21))
        channel = WebRTCChannel(link)
        for sequence in range(30):
            now = sequence / 30.0
            channel.send_frame(0, sequence, 6000, now)
            channel.poll_deliveries(now)
        channel.poll_deliveries(5.0)
        lost = sum(was_lost for _, was_lost in channel._loss_events)
        total = len(channel._loss_events)
        assert total > 0
        assert (channel._loss_lost, channel._loss_total) == (lost, total)
        assert channel._loss_fraction(5.0) == lost / total

    def test_window_pruning(self):
        link = EmulatedLink(constant_trace(40.0))
        channel = WebRTCChannel(link, config=WebRTCConfig(loss_window_s=1.0))
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
            channel.send_frame(0, sequence, 5000, sequence / 30.0)
            channel.send_frame(1, sequence, 2000, sequence / 30.0)
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
        channel.send_frame(0, 0, 5000, 0.0)
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
        channel.send_frame(0, 0, 4000, 0.0)
        channel.poll_deliveries(3.0)
        assert channel._packet_fec_group == {}
        assert channel._fec_group_members == {}
        assert channel._fec_tracker._groups == {}
        assert 1 in channel._fec_repaired  # kept until the frame is released
        channel.release_frame(0)
        assert channel._fec_repaired == set()
        assert channel._fec_repaired_frames == {}


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
