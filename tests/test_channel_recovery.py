"""Channel recovery paths: NACK exhaustion -> PLI, FEC repair
suppressing retransmission, and assembler bookkeeping after drops."""

from repro.transport.channel import WebRTCChannel, WebRTCConfig
from repro.transport.link import EmulatedLink
from repro.transport.packet import Packet
from repro.transport.rtp import RTP_HEADER_BYTES, FrameAssembler, packetize
from repro.transport.traces import constant_trace

FRAME = bytes(i % 253 for i in range(4000))


def _channel(drop, **config_kwargs):
    """Channel over a clean fast link with a scripted drop predicate.

    ``drop(packet)`` decides each packet's fate; every packet offered to
    the link is also recorded in ``seen`` for assertions.
    """
    seen: list[Packet] = []

    def hook(packet: Packet) -> bool:
        seen.append(packet)
        return drop(packet)

    link = EmulatedLink(constant_trace(100.0), fault_hook=hook)
    channel = WebRTCChannel(link, config=WebRTCConfig(**config_kwargs))
    return channel, seen


def _retransmits(seen: list[Packet]) -> list[Packet]:
    """Media packets offered again: a fragment already seen once."""
    first, again = set(), []
    for packet in seen:
        key = (packet.stream_id, packet.frame_sequence, packet.fragment)
        if packet.fragment >= 0 and key in first:
            again.append(packet)
        first.add(key)
    return again


class TestNackExhaustion:
    def test_abandoned_frame_raises_pli_and_drops_state(self):
        """Burst loss kills every copy -> frame abandoned, PLI raised,
        assembler state discarded; the next frame then flows normally."""
        channel, seen = _channel(lambda p: p.frame_sequence == 0)
        channel.send_frame(0, 0, FRAME[:3000], 0.0)
        channel.process_until(3.0)
        assert channel.frame_abandoned(0, 0)
        assert (0, 0) in channel.frames_lost
        assert channel.needs_keyframe(0)       # PLI pending...
        assert not channel.needs_keyframe(0)   # ...consumed on read
        assembler = channel._assemblers[0]
        assert 0 not in assembler._frames  # state dropped
        assert 0 not in assembler._completed
        # Recovery: the next (keyframe) frame is unaffected.
        channel.send_frame(0, 1, FRAME[:3000], 3.0)
        deliveries = channel.poll_deliveries(6.0)
        assert [d.frame_sequence for d in deliveries] == [1]
        assert not channel.frame_abandoned(0, 1)

    def test_no_retransmits_for_abandoned_frames(self):
        """Once one fragment exhausts its retries, the frame's other
        pending NACKs must not schedule retransmissions (dead frame)."""
        channel, seen = _channel(lambda p: p.frame_sequence == 0, nack_retries=0)
        channel.send_frame(0, 0, FRAME[:3000], 0.0)  # 3 fragments at default MTU
        channel.process_until(3.0)
        assert channel.frame_abandoned(0, 0)
        assert channel.frames_lost == [(0, 0)]  # recorded once, not per fragment
        assert len(seen) == 3 and _retransmits(seen) == []

    def test_single_loss_recovers_via_nack(self):
        dropped: set[int] = set()

        def drop_once(packet: Packet) -> bool:
            if packet.fragment == 1 and not dropped:
                dropped.add(packet.sequence)
                return True
            return False

        channel, seen = _channel(drop_once)
        channel.send_frame(0, 0, FRAME[:3000], 0.0)
        deliveries = channel.poll_deliveries(3.0)
        assert [d.frame_sequence for d in deliveries] == [0]
        # The NACK resent the stored slice: the frame is the buffer sent.
        [retransmit] = _retransmits(seen)
        assert retransmit.fragment == 1 and retransmit.sequence not in dropped
        assert deliveries[0].data == FRAME[:3000]
        assert not channel.frame_abandoned(0, 0)

    def test_lost_unrepaired_packet_leaves_frame_undelivered(self):
        """With no retransmission and no parity, one lost packet means
        the frame's bytes never reassemble: nothing is delivered."""
        channel, seen = _channel(lambda p: p.fragment == 2, nack_retries=0)
        channel.send_frame(0, 0, FRAME, 0.0)
        assert channel.poll_deliveries(3.0) == []
        assert channel.frame_abandoned(0, 0)
        assert channel._assemblers[0]._frames == {}


class TestFECRepair:
    def test_parity_repairs_single_loss_without_retransmit(self):
        """One lost media packet per FEC group is rebuilt from the
        parity; the later NACK must not retransmit it."""
        channel, seen = _channel(lambda p: p.sequence == 1, fec_group_size=4)
        channel.send_frame(0, 0, FRAME, 0.0)  # 4 media fragments + 1 parity
        deliveries = channel.poll_deliveries(3.0)
        assert [d.frame_sequence for d in deliveries] == [0]
        assert deliveries[0].data == FRAME
        assert channel.fec_repairs == 1
        assert channel._fec_repaired == {(0, 0): {1}}
        assert _retransmits(seen) == []
        assert not channel.frame_abandoned(0, 0)

    def test_double_loss_falls_back_to_nack(self):
        """Two losses in one group exceed XOR parity; NACK still saves
        the frame."""
        # Retransmits take fresh sequence numbers: only the originals drop.
        channel, seen = _channel(lambda p: p.sequence in (1, 2), fec_group_size=4)
        channel.send_frame(0, 0, FRAME, 0.0)
        deliveries = channel.poll_deliveries(3.0)
        assert [d.frame_sequence for d in deliveries] == [0]
        assert deliveries[0].data == FRAME
        assert channel.fec_repairs == 0
        assert sorted(p.fragment for p in _retransmits(seen)) == [1, 2]


class TestAssemblerDropBookkeeping:
    def test_drop_frame_forgets_partial_state(self):
        assembler = FrameAssembler()
        packets = packetize(0, 7, FRAME[:3000], 0.0, first_packet_sequence=0)
        assert len(packets) == 3
        assert assembler.on_packet(packets[0]) is None
        assert assembler.on_packet(packets[1]) is None
        assert set(assembler._frames[7]) == {0, 1}
        assembler.drop_frame(7)
        assert assembler._frames == {}
        assert 7 not in assembler._completed
        # The dropped fragments are gone: the last one alone completes nothing.
        assert assembler.on_packet(packets[2]) is None

    def test_frame_completes_fresh_after_drop(self):
        """A dropped frame can still complete if all fragments later
        arrive (e.g. late retransmits): state rebuilds from scratch."""
        assembler = FrameAssembler()
        packets = packetize(0, 7, FRAME[:3000], 0.0, first_packet_sequence=0)
        assembler.on_packet(packets[0])
        assembler.drop_frame(7)
        completed = None
        for packet in packets:
            completed = assembler.on_packet(packet) or completed
        assert completed == FRAME[:3000]
        assert 7 in assembler._completed

    def test_zero_byte_marker_assembles(self):
        marker = Packet(
            sequence=0,
            stream_id=0,
            frame_sequence=3,
            fragment=0,
            num_fragments=1,
            size_bytes=RTP_HEADER_BYTES,
            send_time_s=0.0,
        )
        assembler = FrameAssembler()
        assert assembler.on_packet(marker) == b""
