"""Packet types shared across the transport simulation."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Packet", "MTU_BYTES"]

# Typical Ethernet payload budget after IP/UDP headers, for the two-party
# channel's RTP packets and the SFU's downlink bursts alike.
MTU_BYTES = 1200


@dataclass(slots=True)
class Packet:
    """One RTP-like packet in flight.

    Attributes:
        sequence: transport-level sequence number (per channel).
        stream_id: which media stream this packet belongs to
            (LiVo runs two: color and depth).
        frame_sequence: the video frame this packet carries a piece of.
        fragment: fragment index within the frame.
        num_fragments: total fragments of the frame.
        size_bytes: payload + header size.
        send_time_s: when the sender handed it to the link.
        payload: the bytes carried -- a slice of the serialized frame,
            or a parity's XOR of its group.  SFU downlink packets carry
            none yet; only their size matters there.
        fec_header: set on parity packets only -- the first fragment
            the parity protects and the XOR of the protected payload
            lengths (RFC 5109's base and length-recovery fields; the
            base counts fragments, not sequence numbers).
    """

    sequence: int
    stream_id: int
    frame_sequence: int
    fragment: int
    num_fragments: int
    size_bytes: int
    send_time_s: float
    payload: bytes | memoryview = b""
    fec_header: tuple[int, int] | None = None
    arrival_time_s: float | None = field(default=None, compare=False)
