"""RTP-like packetization: frames <-> MTU-sized packets.

The sender fragments each encoded frame into MTU-sized packets; the
receiver reassembles fragments and reports frames complete once every
fragment has arrived.  Missing fragments are what NACKs (and eventually
PLI) react to in the channel layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.transport.packet import DEFAULT_MTU, Packet

__all__ = ["packetize", "FrameAssembler", "RTP_HEADER_BYTES"]

RTP_HEADER_BYTES = 12


def packetize(
    stream_id: int,
    frame_sequence: int,
    frame_bytes: int,
    send_time_s: float,
    first_packet_sequence: int,
    mtu: int = DEFAULT_MTU,
) -> list[Packet]:
    """Fragment a frame of ``frame_bytes`` into RTP-like packets."""
    if frame_bytes <= 0:
        raise ValueError("frame_bytes must be positive")
    if mtu <= RTP_HEADER_BYTES:
        raise ValueError("mtu must exceed the RTP header size")
    payload_per_packet = mtu - RTP_HEADER_BYTES
    num_fragments = -(-frame_bytes // payload_per_packet)
    packets = []
    remaining = frame_bytes
    for fragment in range(num_fragments):
        payload = min(payload_per_packet, remaining)
        remaining -= payload
        packets.append(
            Packet(
                sequence=first_packet_sequence + fragment,
                stream_id=stream_id,
                frame_sequence=frame_sequence,
                fragment=fragment,
                num_fragments=num_fragments,
                size_bytes=payload + RTP_HEADER_BYTES,
                send_time_s=send_time_s,
            )
        )
    return packets


@dataclass
class _FrameState:
    num_fragments: int
    received: set[int] = field(default_factory=set)
    first_arrival_s: float | None = None
    last_arrival_s: float | None = None

    @property
    def complete(self) -> bool:
        return len(self.received) == self.num_fragments


class FrameAssembler:
    """Reassembles one stream's packets into complete frames."""

    def __init__(self) -> None:
        self._frames: dict[int, _FrameState] = {}
        self._completed: set[int] = set()

    def on_packet(self, packet: Packet, arrival_time_s: float) -> int | None:
        """Register an arrived packet.

        Returns the frame sequence if this packet completed a frame,
        else None.
        """
        state = self._frames.get(packet.frame_sequence)
        if state is None:
            state = _FrameState(num_fragments=packet.num_fragments)
            self._frames[packet.frame_sequence] = state
        if state.first_arrival_s is None:
            state.first_arrival_s = arrival_time_s
        state.last_arrival_s = arrival_time_s
        state.received.add(packet.fragment)
        if state.complete and packet.frame_sequence not in self._completed:
            self._completed.add(packet.frame_sequence)
            return packet.frame_sequence
        return None

    def missing_fragments(self, frame_sequence: int) -> list[int]:
        """Fragments of a frame not yet received (for NACK generation)."""
        state = self._frames.get(frame_sequence)
        if state is None:
            return []
        return [f for f in range(state.num_fragments) if f not in state.received]

    def frame_complete(self, frame_sequence: int) -> bool:
        """Whether all fragments of a frame have arrived."""
        return frame_sequence in self._completed

    def completion_time(self, frame_sequence: int) -> float | None:
        """Arrival time of the frame's last fragment, if complete."""
        state = self._frames.get(frame_sequence)
        if state is None or not state.complete:
            return None
        return state.last_arrival_s

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
