"""Forward error correction: XOR parity across packet groups.

The paper lists robustness to packet loss as future work and leans on
NACK/PLI in the meantime (appendix A.1); WebRTC deployments commonly
add FEC (e.g. flexfec, or the RL-tuned R-FEC the paper cites).  This
module implements the classic single-parity scheme: every ``group_size``
media packets are followed by one XOR parity packet, letting the
receiver repair any single loss per group without a retransmission
round trip -- trading ~1/group_size bandwidth overhead for latency.
The sending channel groups each frame's packets itself
(``WebRTCConfig.fec_group_size`` validates the group size) and builds
each group's parity with :func:`parity_packet_for`;
:class:`FECGroupTracker` is the receiving side.

The simulation tracks packet *accounting* (sizes, sequence numbers,
which losses are repairable), not payload bytes; that is all the
transport layer's behaviour depends on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.transport.packet import Packet

__all__ = ["FECGroupTracker", "parity_packet_for"]


def parity_packet_for(group: list[Packet], sequence: int) -> Packet:
    """Build the parity packet protecting a group of media packets.

    Its size is the maximum packet size in the group (XOR of padded
    payloads), attributed to the stream/frame of the last packet.
    """
    if not group:
        raise ValueError("parity needs a non-empty group")
    last = group[-1]
    return Packet(
        sequence=sequence,
        stream_id=last.stream_id,
        frame_sequence=last.frame_sequence,
        fragment=-1,                      # parity marker
        num_fragments=last.num_fragments,
        size_bytes=max(p.size_bytes for p in group),
        send_time_s=last.send_time_s,
    )


@dataclass
class _GroupState:
    media_total: int
    media_received: int = 0
    parity_received: bool = False
    lost_packets: list[Packet] = field(default_factory=list)


class FECGroupTracker:
    """Receiver-side bookkeeping: which losses are parity-repairable.

    A group with exactly one lost media packet *and* a received parity
    packet is repairable; the tracker reports the repaired packets so
    the channel can cancel their NACKs.
    """

    def __init__(self) -> None:
        self._groups: dict[int, _GroupState] = {}
        self.repaired = 0

    def _group(self, group_id: int, media_total: int) -> _GroupState:
        state = self._groups.get(group_id)
        if state is None:
            state = _GroupState(media_total=media_total)
            self._groups[group_id] = state
        return state

    def on_media(self, group_id: int, media_total: int, delivered: bool,
                 packet: Packet) -> Packet | None:
        """Account a media packet outcome; returns a packet recovered by
        an already-received parity, if this loss made recovery possible.
        """
        state = self._group(group_id, media_total)
        if delivered:
            state.media_received += 1
        else:
            state.lost_packets.append(packet)
        return self._try_repair(state)

    def on_parity(self, group_id: int, media_total: int, delivered: bool) -> Packet | None:
        """Account the group's parity packet; may enable a repair."""
        state = self._group(group_id, media_total)
        if delivered:
            state.parity_received = True
        return self._try_repair(state)

    def release(self, group_id: int) -> None:
        """Forget a fully-accounted group (memory reclamation)."""
        self._groups.pop(group_id, None)

    def _try_repair(self, state: _GroupState) -> Packet | None:
        if (
            state.parity_received
            and len(state.lost_packets) == 1
            and state.media_received == state.media_total - 1
        ):
            self.repaired += 1
            repaired = state.lost_packets.pop()
            state.media_received += 1
            return repaired
        return None
