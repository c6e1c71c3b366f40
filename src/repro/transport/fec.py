"""Forward error correction: XOR parity across packet groups.

The paper lists robustness to packet loss as future work and leans on
NACK/PLI in the meantime (appendix A.1); WebRTC deployments commonly
add FEC (e.g. flexfec, or the RL-tuned R-FEC the paper cites).  This
module implements the classic single-parity scheme: every ``group_size``
media packets of a frame are followed by one parity packet, letting the
receiver repair any single loss per group without a retransmission
round trip -- trading ~1/group_size bandwidth overhead for latency.

The parity payload is the XOR of the group's payloads, each zero-padded
to the longest, so it is as long as the longest member.  As in RFC
5109's length recovery, the XOR of the member lengths rides in the
parity's header (``Packet.fec_header``), so a repair rebuilds the lost
slice byte for byte, a short last fragment included.  The sending
channel groups each frame's packets (``WebRTCConfig.fec_group_size``)
and builds each group's parity with :func:`parity_packet_for`; the
receiving assembler rebuilds a lost member with :func:`recover_payload`.
"""

from __future__ import annotations

from repro.transport.packet import Packet

__all__ = ["parity_packet_for", "recover_payload"]


def _xor(payloads) -> bytes:
    """XOR of byte strings, each zero-padded to the longest."""
    width = max(len(payload) for payload in payloads)
    acc = 0
    for payload in payloads:
        # Little-endian: the zero padding lands in the high bytes.
        acc ^= int.from_bytes(payload, "little")
    return acc.to_bytes(width, "little")


def parity_packet_for(group: list[Packet], sequence: int) -> Packet:
    """Build the parity packet protecting a frame's group of media packets.

    Its size is the maximum packet size in the group (the XOR of the
    padded payloads), attributed to the stream/frame of the last packet.
    """
    if not group:
        raise ValueError("parity needs a non-empty group")
    last = group[-1]
    length_recovery = 0
    for packet in group:
        length_recovery ^= len(packet.payload)
    return Packet(
        sequence=sequence,
        stream_id=last.stream_id,
        frame_sequence=last.frame_sequence,
        fragment=-1,                      # parity marker
        num_fragments=last.num_fragments,
        size_bytes=max(p.size_bytes for p in group),
        send_time_s=last.send_time_s,
        payload=_xor([p.payload for p in group]),
        fec_header=(group[0].fragment, length_recovery),
    )


def recover_payload(parity: Packet, received: list) -> bytes:
    """The one lost member's payload: the parity XOR every member that
    arrived, cut to the length the parity's header recovers."""
    length = parity.fec_header[1]
    for payload in received:
        length ^= len(payload)
    return _xor([parity.payload, *received])[:length]
