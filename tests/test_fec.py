"""Tests for XOR-parity FEC and its channel integration."""

import pytest

from repro.transport.channel import WebRTCChannel, WebRTCConfig
from repro.transport.fec import parity_packet_for
from repro.transport.link import EmulatedLink, LinkConfig
from repro.transport.packet import Packet
from repro.transport.rtp import FrameAssembler, packetize
from repro.transport.traces import constant_trace

# 4 fragments at the default MTU: three full slices and a short last one.
FRAME = bytes((7 * i + 3) % 256 for i in range(4000))


def media_packet(seq, frame=0, fragment=0, num_fragments=3, size=1200, t=0.0):
    return Packet(
        sequence=seq, stream_id=0, frame_sequence=frame, fragment=fragment,
        num_fragments=num_fragments, size_bytes=size, send_time_s=t,
        payload=bytes([seq + 1]) * (size - 12),
    )


class TestFECEncoder:
    """The send side: the channel groups packets, ``parity_packet_for``
    builds each group's parity."""

    def test_parity_size_is_group_max(self):
        group = [media_packet(0, size=500), media_packet(1, fragment=1, size=900)]
        parity = parity_packet_for(group, sequence=7)
        assert parity.size_bytes == 900
        assert parity.sequence == 7
        assert parity.fragment == -1
        # The XOR of the zero-padded payloads, as long as the longest;
        # the header names the first member and XORs the lengths.
        assert parity.payload == bytes([1 ^ 2]) * 488 + bytes([2]) * 400
        assert parity.fec_header == (0, 488 ^ 888)

    def test_invalid_group_size(self):
        # 1 sent a full-size parity per packet, 0 silently disabled FEC,
        # a negative size counted as "on" and sent no parity at all.
        for group_size in (1, 0, -3):
            with pytest.raises(ValueError, match="fec_group_size"):
                WebRTCConfig(fec_group_size=group_size)
        assert WebRTCConfig(fec_group_size=2).fec_group_size == 2
        with pytest.raises(ValueError):
            parity_packet_for([], 0)


def _assemble_without(lost: set[int], group_size=4):
    """Packetize FRAME, deliver every fragment but ``lost``; return the
    assembler, the packets and the first group's parity."""
    packets = packetize(0, 0, FRAME, 0.0, 0)
    assembler = FrameAssembler()
    for packet in packets:
        if packet.fragment not in lost:
            assembler.on_packet(packet)
    return assembler, packets, parity_packet_for(packets[:group_size], len(packets))


class TestParityRepair:
    """The receive side: the assembler rebuilds a group's one lost
    member from the parity and the members that arrived."""

    def test_single_loss_repaired_when_parity_arrives(self):
        for lost in (0, 1, 3):  # first, middle, and the short last slice
            assembler, packets, parity = _assemble_without({lost})
            repaired = assembler.repair(parity, group_size=4)
            assert repaired.fragment == lost
            assert bytes(repaired.payload) == bytes(packets[lost].payload)  # byte-exact
            assert repaired.size_bytes == packets[lost].size_bytes
            assert assembler.on_packet(repaired) == FRAME

    def test_double_loss_not_repairable(self):
        assembler, _, parity = _assemble_without({1, 3})
        assert assembler.repair(parity, group_size=4) is None

    def test_lost_parity_cannot_repair(self):
        """The parity and one media packet drop: nothing is repaired,
        and with NACK off the frame never reassembles."""
        link = EmulatedLink(
            constant_trace(100.0), fault_hook=lambda p: p.fragment in (-1, 2)
        )
        channel = WebRTCChannel(link, WebRTCConfig(fec_group_size=4, nack_retries=0))
        channel.send_frame(0, 0, FRAME, 0.0)
        assert channel.poll_deliveries(3.0) == []
        assert channel.fec_repairs == 0 and channel.frame_abandoned(0, 0)

    def test_no_loss_no_repair(self):
        assembler, packets, parity = _assemble_without(set())
        assert assembler.repair(parity, group_size=4) is None  # frame completed
        partial = FrameAssembler()
        for packet in packets[:3]:
            partial.on_packet(packet)
        # The group's members are all in, only the next group's is not.
        assert partial.repair(parity_packet_for(packets[:3], 9), group_size=3) is None


class TestChannelWithFEC:
    def run_channel(self, fec_group_size, loss_rate, seed=7, frames=40):
        link = EmulatedLink(
            constant_trace(100.0),
            LinkConfig(propagation_delay_s=0.01, loss_rate=loss_rate, seed=seed),
        )
        channel = WebRTCChannel(
            link, WebRTCConfig(fec_group_size=fec_group_size, nack_retries=0)
        )
        sent = [(bytes([frame]) * 4 + FRAME * 5)[:20_000] for frame in range(frames)]
        for frame, data in enumerate(sent):
            channel.send_frame(0, frame, data, now=frame / 30.0)
        deliveries = channel.poll_deliveries(frames / 30.0 + 3.0)
        # Whatever was repaired, every delivered frame is the buffer sent.
        assert all(d.data == sent[d.frame_sequence] for d in deliveries)
        return channel, {d.frame_sequence for d in deliveries}

    def test_fec_recovers_single_losses_without_nack(self):
        _, without = self.run_channel(fec_group_size=None, loss_rate=0.03)
        _, with_fec = self.run_channel(fec_group_size=4, loss_rate=0.03)
        # With NACK disabled, FEC is the only recovery path.
        assert len(with_fec) > len(without)

    def test_fec_disabled_by_default(self):
        channel, delivered = self.run_channel(fec_group_size=None, loss_rate=0.0)
        assert channel.fec_repairs == 0
        assert len(delivered) == 40

    def test_fec_adds_bandwidth_overhead(self):
        lossless_plain, _ = self.run_channel(fec_group_size=None, loss_rate=0.0)
        lossless_fec, _ = self.run_channel(fec_group_size=4, loss_rate=0.0)
        plain_bytes = lossless_plain.bytes_sent_per_stream[0]
        fec_bytes = lossless_fec.bytes_sent_per_stream[0]
        assert fec_bytes > plain_bytes
        # Roughly 1/group_size extra.
        assert fec_bytes < plain_bytes * 1.4

    def test_repairs_counted(self):
        channel, _ = self.run_channel(fec_group_size=4, loss_rate=0.05, seed=3)
        assert channel.fec_repairs > 0
