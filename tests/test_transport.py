"""Tests for link, GCC, RTP, jitter buffer, channel, and TCP-like stream."""

import numpy as np
import pytest

from repro.transport.channel import REVERSE_DELAY_S, WebRTCChannel, WebRTCConfig
from repro.transport.gcc import GCCConfig, GoogleCongestionControl
from repro.transport.link import EmulatedLink, LinkConfig
from repro.transport.packet import Packet
from repro.transport.rtp import RTP_HEADER_BYTES, FrameAssembler, packetize
from repro.transport.tcp import ReliableByteStream
from repro.transport.traces import BandwidthTrace, constant_trace


def make_packet(seq=0, size=1200, t=0.0, frame=0, fragment=0, num_fragments=1):
    return Packet(
        sequence=seq, stream_id=0, frame_sequence=frame, fragment=fragment,
        num_fragments=num_fragments, size_bytes=size, send_time_s=t,
    )


class TestEmulatedLink:
    def test_delivery_time_includes_serialization_and_propagation(self):
        link = EmulatedLink(constant_trace(8.0), LinkConfig(propagation_delay_s=0.01))
        # 1000 bytes at 8 Mbps = 1 ms serialization.
        arrival = link.send(make_packet(size=1000, t=0.0))
        assert arrival == pytest.approx(0.001 + 0.01)

    def test_fifo_queueing(self):
        link = EmulatedLink(constant_trace(8.0), LinkConfig(propagation_delay_s=0.0))
        first = link.send(make_packet(seq=0, size=1000, t=0.0))
        second = link.send(make_packet(seq=1, size=1000, t=0.0))
        assert second == pytest.approx(first + 0.001)

    def test_queue_overflow_drops(self):
        link = EmulatedLink(constant_trace(1.0), LinkConfig(propagation_delay_s=0.0))
        # Each 1250-byte packet takes 10 ms at 1 Mbps; the 32nd would
        # wait 310 ms, past the 300 ms drop-tail bound.
        outcomes = [link.send(make_packet(seq=i, size=1250, t=0.0)) for i in range(40)]
        assert all(outcome is not None for outcome in outcomes[:31])
        assert all(outcome is None for outcome in outcomes[31:])
        assert link.packets_dropped == 9

    def test_random_loss(self):
        link = EmulatedLink(
            constant_trace(1000.0), LinkConfig(loss_rate=0.5, seed=1)
        )
        outcomes = [link.send(make_packet(seq=i, t=i * 0.001)) for i in range(200)]
        losses = sum(1 for o in outcomes if o is None)
        assert 60 < losses < 140

    def test_capacity_change_affects_service(self):
        trace = BandwidthTrace(np.array([8.0, 0.8]), interval_s=1.0)
        link = EmulatedLink(trace, LinkConfig(propagation_delay_s=0.0))
        fast = link.send(make_packet(seq=0, size=1000, t=0.0))
        slow = link.send(make_packet(seq=1, size=1000, t=1.0))
        assert fast == pytest.approx(0.001)
        assert slow == pytest.approx(1.01)

    def test_service_spans_interval_boundary(self):
        trace = BandwidthTrace(np.array([0.8, 8.0]), interval_s=1.0)
        link = EmulatedLink(trace, LinkConfig(propagation_delay_s=0.0))
        # 200 kB at 0.8 Mbps would take 2 s; after 1 s the rate rises.
        arrival = link.send(make_packet(size=200_000, t=0.0))
        # First second serves 100 kB; remaining 100 kB at 8 Mbps = 0.1 s.
        assert arrival == pytest.approx(1.1)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            LinkConfig(propagation_delay_s=-1)
        with pytest.raises(ValueError):
            LinkConfig(loss_rate=1.0)


class TestGCC:
    def feed_steady(self, gcc, rate_bps, one_way=0.02, count=50, size=1200):
        t = 0.0
        for _ in range(count):
            dt = size * 8 / rate_bps
            t += dt
            gcc.on_packet_feedback(t, t + one_way, size)

    def test_increases_when_delay_stable(self):
        gcc = GoogleCongestionControl(GCCConfig(initial_rate_bps=10e6))
        self.feed_steady(gcc, 20e6)
        assert gcc.target_rate_bps() > 10e6
        assert gcc.state == "increase"

    def test_decreases_on_growing_delay(self):
        gcc = GoogleCongestionControl(GCCConfig(initial_rate_bps=50e6))
        t = 0.0
        delay = 0.02
        for _ in range(50):
            t += 0.001
            delay += 0.01  # queue building fast
            gcc.on_packet_feedback(t, t + delay, 1200)
        assert gcc.state == "decrease"
        assert gcc.target_rate_bps() < 50e6

    def test_loss_controller_cuts_on_heavy_loss(self):
        gcc = GoogleCongestionControl(GCCConfig(initial_rate_bps=50e6))
        for _ in range(10):
            gcc.on_loss_report(0.3)
        assert gcc.target_rate_bps() < 50e6

    def test_loss_controller_grows_on_clean_network(self):
        gcc = GoogleCongestionControl(GCCConfig(initial_rate_bps=10e6))
        before = gcc.target_rate_bps()
        self.feed_steady(gcc, 20e6)
        for _ in range(10):
            gcc.on_loss_report(0.0)
        assert gcc.target_rate_bps() > before

    def test_rate_bounded(self):
        config = GCCConfig(initial_rate_bps=10e6, min_rate_bps=5e6, max_rate_bps=20e6)
        gcc = GoogleCongestionControl(config)
        self.feed_steady(gcc, 100e6, count=500)
        assert gcc.target_rate_bps() <= 20e6

    def test_invalid_loss_fraction(self):
        with pytest.raises(ValueError):
            GoogleCongestionControl().on_loss_report(1.5)


def frame_bytes(n):
    """A frame buffer whose every byte tells where it came from."""
    return bytes(i % 251 for i in range(n))


class TestRTP:
    def test_packetize_fragment_count(self):
        data = frame_bytes(3000)
        packets = packetize(0, 5, data, send_time_s=1.0,
                            first_packet_sequence=10, mtu=1200)
        payload = 1200 - RTP_HEADER_BYTES
        assert len(packets) == -(-3000 // payload)
        assert [p.sequence for p in packets] == list(range(10, 10 + len(packets)))
        assert sum(p.size_bytes - RTP_HEADER_BYTES for p in packets) == 3000
        # Each packet carries its slice of the buffer, the last one short.
        assert b"".join(p.payload for p in packets) == data
        assert [len(p.payload) for p in packets] == [payload, payload, 3000 - 2 * payload]

    def test_packetize_small_frame_single_packet(self):
        packets = packetize(1, 0, bytes(100), send_time_s=0.0, first_packet_sequence=0)
        assert len(packets) == 1
        assert packets[0].num_fragments == 1

    def test_packetize_invalid(self):
        with pytest.raises(ValueError):
            packetize(0, 0, b"", 0.0, 0)
        with pytest.raises(ValueError):
            packetize(0, 0, bytes(100), 0.0, 0, mtu=10)

    def test_assembler_completes_frame(self):
        assembler = FrameAssembler()
        data = frame_bytes(3000)
        packets = packetize(0, 7, data, 0.0, 0)
        completed = [assembler.on_packet(p) for p in packets]
        assert completed[:-1] == [None] * (len(packets) - 1)
        assert completed[-1] == data
        # A duplicate of a completed frame's packet completes nothing.
        assert assembler.on_packet(packets[0]) is None

    def test_assembler_missing_fragments(self):
        """Out-of-order fragments join in fragment order, and only once
        the missing one arrives."""
        assembler = FrameAssembler()
        data = frame_bytes(5000)
        packets = packetize(0, 3, data, 0.0, 0)
        assert assembler.on_packet(packets[0]) is None
        for packet in packets[2:]:
            assert assembler.on_packet(packet) is None
        assert assembler.on_packet(packets[1]) == data

    def test_assembler_drop_frame(self):
        assembler = FrameAssembler()
        packets = packetize(0, 3, bytes(5000), 0.0, 0)
        assembler.on_packet(packets[0])
        assembler.drop_frame(3)
        assert assembler._frames == {}


class TestWebRTCChannel:
    def test_frame_delivery_end_to_end(self):
        link = EmulatedLink(constant_trace(100.0), LinkConfig(propagation_delay_s=0.01))
        channel = WebRTCChannel(link)
        data = frame_bytes(40_000)
        channel.send_frame(stream_id=0, frame_sequence=0, data=data, now=0.0)
        deliveries = channel.poll_deliveries(1.0)
        assert len(deliveries) == 1
        delivery = deliveries[0]
        assert delivery.frame_sequence == 0
        assert delivery.data == data
        # 40 kB at 100 Mbps ~ 3.3 ms serialization (+ headers) + 10 ms prop.
        assert 0.012 < delivery.completion_time_s < 0.03

    def test_rtt_estimate_tracks_path(self):
        link = EmulatedLink(constant_trace(100.0), LinkConfig(propagation_delay_s=0.03))
        channel = WebRTCChannel(link)
        for frame in range(10):
            channel.send_frame(0, frame, bytes(20_000), now=frame / 30.0)
        channel.process_until(2.0)
        # The path (30 ms out, REVERSE_DELAY_S back) plus serialization.
        path_s = 0.03 + REVERSE_DELAY_S
        assert path_s < channel.rtt_s < path_s + 0.02
        assert channel.one_way_delay_estimate_s == pytest.approx(channel.rtt_s / 2)

    def test_gcc_estimate_converges_below_capacity(self):
        link = EmulatedLink(constant_trace(50.0), LinkConfig(propagation_delay_s=0.02))
        channel = WebRTCChannel(link)
        rng = np.random.default_rng(0)
        for frame in range(90):
            now = frame / 30.0
            channel.process_until(now)
            target = channel.target_rate_bps()
            size = max(1000, int(target / 8 / 30 * rng.uniform(0.9, 1.0)))
            channel.send_frame(0, frame, bytes(size), now)
        channel.process_until(4.0)
        estimate_mbps = channel.target_rate_bps() / 1e6
        assert 15 < estimate_mbps < 75

    def test_nack_recovers_lost_packets(self):
        link = EmulatedLink(
            constant_trace(100.0),
            LinkConfig(propagation_delay_s=0.01, loss_rate=0.1, seed=3),
        )
        channel = WebRTCChannel(link)
        sent = [frame_bytes(30_000 - frame) for frame in range(30)]
        for frame, data in enumerate(sent):
            channel.send_frame(0, frame, data, now=frame / 30.0)
        deliveries = channel.poll_deliveries(5.0)
        delivered = {d.frame_sequence for d in deliveries}
        # Retransmitted slices reassemble to the very buffer sent.
        assert all(d.data == sent[d.frame_sequence] for d in deliveries)
        # With 3 NACK retries at 10% loss, nearly every frame completes.
        assert len(delivered) >= 28

    def test_keyframe_request_after_exhausted_retries(self):
        link = EmulatedLink(
            constant_trace(100.0),
            LinkConfig(propagation_delay_s=0.01, loss_rate=0.9, seed=5),
        )
        channel = WebRTCChannel(link, WebRTCConfig(nack_retries=1))
        for frame in range(10):
            channel.send_frame(0, frame, bytes(20_000), now=frame / 30.0)
        channel.process_until(5.0)
        assert channel.frames_lost
        assert channel.needs_keyframe(0)
        assert not channel.needs_keyframe(0)  # consumed on read

    def test_per_stream_accounting(self):
        link = EmulatedLink(constant_trace(100.0))
        channel = WebRTCChannel(link)
        channel.send_frame(0, 0, bytes(10_000), 0.0)
        channel.send_frame(1, 0, bytes(5_000), 0.0)
        assert channel.bytes_sent_per_stream[0] > channel.bytes_sent_per_stream[1] > 0

    def test_invalid_frame_size(self):
        # A frame crosses as its bytes: a bare size is no frame.
        channel = WebRTCChannel(EmulatedLink(constant_trace(10.0)))
        with pytest.raises(TypeError):
            channel.send_frame(0, 0, -1, 0.0)

    def test_zero_byte_frame_sends_marker(self):
        """A fully-culled (zero-byte) frame becomes a marker packet, not
        an exception, so the receiver still sees the sequence advance."""
        channel = WebRTCChannel(EmulatedLink(constant_trace(10.0)))
        channel.send_frame(0, 0, b"", 0.0)
        assert channel.marker_frames == [(0, 0)]
        deliveries = channel.poll_deliveries(5.0)
        assert [d.frame_sequence for d in deliveries] == [0]
        assert deliveries[0].stream_id == 0
        assert deliveries[0].data == b""


class TestReliableByteStream:
    def test_in_order_delivery_times(self):
        stream = ReliableByteStream(constant_trace(8.0), propagation_delay_s=0.0,
                                    efficiency=1.0)
        first = stream.send(0, 100_000, now=0.0)   # 0.1 s at 8 Mbps
        second = stream.send(1, 100_000, now=0.0)
        assert first.delivery_time_s == pytest.approx(0.1)
        assert second.delivery_time_s == pytest.approx(0.2)

    def test_backlog_accumulates(self):
        stream = ReliableByteStream(constant_trace(1.0), efficiency=1.0)
        stream.send(0, 1_000_000, now=0.0)  # 8 s of work
        assert stream.backlog_delay_at(1.0) == pytest.approx(7.0)

    def test_efficiency_discount(self):
        fast = ReliableByteStream(constant_trace(8.0), propagation_delay_s=0.0, efficiency=1.0)
        slow = ReliableByteStream(constant_trace(8.0), propagation_delay_s=0.0, efficiency=0.5)
        assert slow.send(0, 100_000, 0.0).delivery_time_s > fast.send(0, 100_000, 0.0).delivery_time_s

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ReliableByteStream(constant_trace(8.0), efficiency=0.0)
        stream = ReliableByteStream(constant_trace(8.0))
        with pytest.raises(ValueError):
            stream.send(0, 0, 0.0)


class TestReceiveSocketBuffer:
    """Appendix A.1: the receiver's UDP socket buffer can overflow."""

    def test_unbounded_by_default(self):
        link = EmulatedLink(constant_trace(1000.0), LinkConfig())
        for seq in range(50):
            assert link.send(make_packet(seq=seq, size=1200, t=0.0)) is not None
        assert link.socket_drops == 0

    def test_burst_overflows_small_buffer(self):
        config = LinkConfig(
            receive_buffer_bytes=5_000, receive_drain_rate_bps=1e6,
            propagation_delay_s=0.0,
        )
        link = EmulatedLink(constant_trace(1000.0), config)
        outcomes = [link.send(make_packet(seq=i, size=1200, t=0.0)) for i in range(20)]
        assert link.socket_drops > 0
        assert any(o is None for o in outcomes)

    def test_spaced_packets_drain_in_time(self):
        config = LinkConfig(
            receive_buffer_bytes=5_000, receive_drain_rate_bps=10e6,
            propagation_delay_s=0.0,
        )
        link = EmulatedLink(constant_trace(1000.0), config)
        # 1200 B every 10 ms drains fully (12.5 kB/s << 1.25 MB/s).
        for seq in range(20):
            assert link.send(make_packet(seq=seq, size=1200, t=seq * 0.01)) is not None
        assert link.socket_drops == 0

    def test_invalid_buffer_config(self):
        with pytest.raises(ValueError):
            LinkConfig(receive_buffer_bytes=0)
        with pytest.raises(ValueError):
            LinkConfig(receive_drain_rate_bps=0)
