"""Encoded-frame container and bitstream serialization.

An :class:`EncodedFrame` is what the encoder emits: a self-describing
byte payload plus the metadata the decoder and the rate controller need
(frame type, QP, pixel format, size).  It crosses the transport only as
:meth:`EncodedFrame.to_bytes` -- a fixed ``LVF1`` header, then the
payload -- and the receiver rebuilds it with
:meth:`EncodedFrame.from_bytes`.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

__all__ = ["FrameType", "PixelFormat", "EncodedFrame", "HEADER_BYTES", "MAX_PLANE_SIDE"]


class FrameType(enum.Enum):
    """Frame prediction type within the GOP."""

    INTRA = "I"
    INTER = "P"


class PixelFormat(enum.Enum):
    """Supported input pixel formats."""

    RGB8 = "rgb8"       # (H, W, 3) uint8, coded as YCbCr
    GRAY16 = "gray16"   # (H, W) uint16, the 16-bit-Y depth mode


_HEADER = struct.Struct("<4sBBBBIHHI")
HEADER_BYTES = _HEADER.size
# Height and width travel as uint16: the largest plane a header can name.
MAX_PLANE_SIDE = 0xFFFF
_MAGIC = b"LVF1"
_FRAME_TYPE_CODE = {FrameType.INTRA: 0, FrameType.INTER: 1}
_FRAME_TYPE_FROM = {value: key for key, value in _FRAME_TYPE_CODE.items()}
_FORMAT_CODE = {PixelFormat.RGB8: 0, PixelFormat.GRAY16: 1}
_FORMAT_FROM = {value: key for key, value in _FORMAT_CODE.items()}


@dataclass(frozen=True)
class EncodedFrame:
    """One compressed video frame."""

    frame_type: FrameType
    pixel_format: PixelFormat
    qp: int
    sequence: int
    height: int
    width: int
    payload: bytes

    @property
    def size_bytes(self) -> int:
        """Total wire size including the frame header."""
        return _HEADER.size + len(self.payload)

    @property
    def size_bits(self) -> int:
        """Total wire size in bits."""
        return self.size_bytes * 8

    def to_bytes(self) -> bytes:
        """Serialize for transport.

        Raises ValueError when a field does not fit its header slot
        (height/width over :data:`MAX_PLANE_SIDE`, qp over 255).
        """
        try:
            header = _HEADER.pack(
                _MAGIC,
                _FRAME_TYPE_CODE[self.frame_type],
                _FORMAT_CODE[self.pixel_format],
                self.qp,
                0,
                self.sequence,
                self.height,
                self.width,
                len(self.payload),
            )
        except struct.error as error:
            raise ValueError(f"frame field out of range for the LVF1 header: {error}") from None
        return header + self.payload

    @staticmethod
    def from_bytes(data: bytes) -> "EncodedFrame":
        """Parse a frame serialized by :meth:`to_bytes`.

        Raises ValueError on anything else: a cut or mislabelled header,
        a payload shorter than the header declares, or bytes past it.
        """
        if len(data) < _HEADER.size:
            raise ValueError("truncated frame header")
        magic, type_code, format_code, qp, _, sequence, height, width, payload_len = (
            _HEADER.unpack_from(data)
        )
        if magic != _MAGIC:
            raise ValueError(f"bad frame magic {magic!r}")
        payload = bytes(data[_HEADER.size :])
        if len(payload) < payload_len:
            raise ValueError("truncated frame payload")
        if len(payload) > payload_len:
            raise ValueError("trailing bytes after the frame payload")
        if type_code not in _FRAME_TYPE_FROM:
            raise ValueError(f"unknown frame type code {type_code}")
        if format_code not in _FORMAT_FROM:
            raise ValueError(f"unknown pixel format code {format_code}")
        return EncodedFrame(
            frame_type=_FRAME_TYPE_FROM[type_code],
            pixel_format=_FORMAT_FROM[format_code],
            qp=qp,
            sequence=sequence,
            height=height,
            width=width,
            payload=payload,
        )
