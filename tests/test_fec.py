"""Tests for XOR-parity FEC and its channel integration."""

import pytest

from repro.transport.channel import WebRTCChannel, WebRTCConfig
from repro.transport.fec import FECGroupTracker, parity_packet_for
from repro.transport.link import EmulatedLink, LinkConfig
from repro.transport.packet import Packet
from repro.transport.traces import constant_trace


def media_packet(seq, frame=0, fragment=0, num_fragments=3, size=1200, t=0.0):
    return Packet(
        sequence=seq, stream_id=0, frame_sequence=frame, fragment=fragment,
        num_fragments=num_fragments, size_bytes=size, send_time_s=t,
    )


class TestFECEncoder:
    """The send side: the channel groups packets, ``parity_packet_for``
    builds each group's parity."""

    def test_parity_size_is_group_max(self):
        group = [media_packet(0, size=500), media_packet(1, size=900)]
        parity = parity_packet_for(group, sequence=7)
        assert parity.size_bytes == 900
        assert parity.sequence == 7
        assert parity.fragment == -1

    def test_invalid_group_size(self):
        # 1 sent a full-size parity per packet, 0 silently disabled FEC,
        # a negative size counted as "on" and sent no parity at all.
        for group_size in (1, 0, -3):
            with pytest.raises(ValueError, match="fec_group_size"):
                WebRTCConfig(fec_group_size=group_size)
        assert WebRTCConfig(fec_group_size=2).fec_group_size == 2
        with pytest.raises(ValueError):
            parity_packet_for([], 0)


class TestFECGroupTracker:
    def test_single_loss_repaired_when_parity_arrives(self):
        tracker = FECGroupTracker()
        lost = media_packet(1, fragment=1)
        assert tracker.on_media(0, 3, True, media_packet(0, fragment=0)) is None
        assert tracker.on_media(0, 3, False, lost) is None
        assert tracker.on_media(0, 3, True, media_packet(2, fragment=2)) is None
        recovered = tracker.on_parity(0, 3, True)
        assert recovered is lost
        assert tracker.repaired == 1

    def test_double_loss_not_repairable(self):
        tracker = FECGroupTracker()
        tracker.on_media(0, 3, False, media_packet(0))
        tracker.on_media(0, 3, False, media_packet(1, fragment=1))
        tracker.on_media(0, 3, True, media_packet(2, fragment=2))
        assert tracker.on_parity(0, 3, True) is None

    def test_lost_parity_cannot_repair(self):
        tracker = FECGroupTracker()
        tracker.on_media(0, 2, False, media_packet(0))
        tracker.on_media(0, 2, True, media_packet(1, fragment=1))
        assert tracker.on_parity(0, 2, False) is None

    def test_no_loss_no_repair(self):
        tracker = FECGroupTracker()
        tracker.on_media(0, 2, True, media_packet(0))
        tracker.on_media(0, 2, True, media_packet(1, fragment=1))
        assert tracker.on_parity(0, 2, True) is None
        assert tracker.repaired == 0


class TestChannelWithFEC:
    def run_channel(self, fec_group_size, loss_rate, seed=7, frames=40):
        link = EmulatedLink(
            constant_trace(100.0),
            LinkConfig(propagation_delay_s=0.01, loss_rate=loss_rate, seed=seed),
        )
        channel = WebRTCChannel(
            link, WebRTCConfig(fec_group_size=fec_group_size, nack_retries=0)
        )
        for frame in range(frames):
            channel.send_frame(0, frame, 20_000, now=frame / 30.0)
        deliveries = channel.poll_deliveries(frames / 30.0 + 3.0)
        return channel, {d.frame_sequence for d in deliveries}

    def test_fec_recovers_single_losses_without_nack(self):
        _, without = self.run_channel(fec_group_size=None, loss_rate=0.03)
        _, with_fec = self.run_channel(fec_group_size=4, loss_rate=0.03)
        # With NACK disabled, FEC is the only recovery path.
        assert len(with_fec) > len(without)

    def test_fec_disabled_by_default(self):
        channel, delivered = self.run_channel(fec_group_size=None, loss_rate=0.0)
        assert channel._fec_tracker.repaired == 0
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
        assert channel._fec_tracker.repaired > 0
