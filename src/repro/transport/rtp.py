"""RTP-like packetization: frame buffers <-> MTU-sized packets.

The sender cuts each serialized frame into MTU-sized packets whose
payloads are slices of the frame's buffer; the receiver keeps the
fragments that arrive and joins them into the frame's buffer once every
fragment is in.  Missing fragments are what NACKs (and eventually PLI)
react to in the channel layer; a missing fragment whose FEC group's
parity arrived is rebuilt here by XOR.
"""

from __future__ import annotations

from repro.transport.fec import recover_payload
from repro.transport.packet import MTU_BYTES, Packet

__all__ = ["packetize", "FrameAssembler", "RTP_HEADER_BYTES"]

RTP_HEADER_BYTES = 12


def packetize(
    stream_id: int,
    frame_sequence: int,
    data: bytes,
    send_time_s: float,
    first_packet_sequence: int,
) -> list[Packet]:
    """Cut a frame buffer into RTP-like packets carrying slices of it."""
    view = memoryview(data)
    if not view.nbytes:
        raise ValueError("a frame needs at least one byte")
    payload_per_packet = MTU_BYTES - RTP_HEADER_BYTES
    num_fragments = -(-view.nbytes // payload_per_packet)
    packets = []
    for fragment in range(num_fragments):
        payload = view[fragment * payload_per_packet : (fragment + 1) * payload_per_packet]
        packets.append(
            Packet(
                sequence=first_packet_sequence + fragment,
                stream_id=stream_id,
                frame_sequence=frame_sequence,
                fragment=fragment,
                num_fragments=num_fragments,
                size_bytes=len(payload) + RTP_HEADER_BYTES,
                send_time_s=send_time_s,
                payload=payload,
            )
        )
    return packets


class FrameAssembler:
    """Reassembles one stream's packets into complete frame buffers."""

    def __init__(self) -> None:
        # Incomplete frames: fragment index -> payload.
        self._frames: dict[int, dict[int, bytes | memoryview]] = {}
        self._completed: set[int] = set()

    def on_packet(self, packet: Packet) -> bytes | None:
        """Keep an arrived packet's payload.

        Returns the frame's buffer if this packet completed the frame,
        else None.
        """
        sequence = packet.frame_sequence
        if sequence in self._completed:
            return None
        fragments = self._frames.setdefault(sequence, {})
        fragments[packet.fragment] = packet.payload
        if len(fragments) < packet.num_fragments:
            return None
        del self._frames[sequence]
        self._completed.add(sequence)
        return b"".join(fragments[index] for index in range(packet.num_fragments))

    def repair(self, parity: Packet, group_size: int) -> Packet | None:
        """Rebuild the parity's group member that did not arrive.

        Returns the rebuilt packet when exactly one member is missing,
        else None: nothing lost, or more than XOR parity can repair.
        """
        sequence = parity.frame_sequence
        if sequence in self._completed:
            return None
        fragments = self._frames.get(sequence, {})
        first = parity.fec_header[0]
        members = range(first, min(first + group_size, parity.num_fragments))
        lost = [index for index in members if index not in fragments]
        if len(lost) != 1:
            return None
        payload = recover_payload(parity, [fragments[i] for i in members if i in fragments])
        return Packet(
            sequence=parity.sequence,
            stream_id=parity.stream_id,
            frame_sequence=sequence,
            fragment=lost[0],
            num_fragments=parity.num_fragments,
            size_bytes=len(payload) + RTP_HEADER_BYTES,
            send_time_s=parity.send_time_s,
            payload=payload,
        )

    def drop_frame(self, frame_sequence: int) -> None:
        """Forget an incomplete frame (gave up; PLI path)."""
        self._frames.pop(frame_sequence, None)

    def release_frame(self, frame_sequence: int) -> None:
        """Forget all state for a resolved frame (memory reclamation).

        Unlike :meth:`drop_frame` this also clears the completed mark;
        callers use it once the application has consumed the frame and
        no late packets for it can still be useful.
        """
        self._frames.pop(frame_sequence, None)
        self._completed.discard(frame_sequence)
