"""Frame sequence markers.

WebRTC strips application metadata from video frames, so LiVo embeds a
(pre-generated) QR code encoding the frame sequence number in each tiled
frame and decodes it at the receiver to re-synchronize the color and
depth streams (paper appendix A.1, following Salsify).

We substitute a simpler machine-readable pattern with the same
robustness property: each bit of a 32-bit big-endian sequence number is
painted as an ``MARKER_HEIGHT x cell_width`` block at full black / full
white.  Lossy codecs preserve such large saturated blocks easily, and
decoding thresholds each cell's mean -- majority voting over the cell's
pixels, like a QR reader's module sampling.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MARKER_HEIGHT", "MARKER_BITS", "MARKER_MIN_WIDTH", "encode_marker", "decode_marker"]

MARKER_HEIGHT = 8
MARKER_BITS = 32
MARKER_MIN_WIDTH = 2 * MARKER_BITS   # two pixels per bit cell


def _cell_edges(width: int) -> np.ndarray:
    """Column boundaries dividing ``width`` pixels into MARKER_BITS cells."""
    return np.linspace(0, width, MARKER_BITS + 1).astype(int)


def encode_marker(sequence: int, width: int, high_value: int, dtype) -> np.ndarray:
    """Render a sequence number as a marker strip.

    Args:
        sequence: frame sequence number (32-bit unsigned).
        width: strip width in pixels (must allow >= 2 px per bit cell).
        high_value: pixel value for a 1 bit (255 for uint8, 65535 for uint16).
        dtype: output dtype.

    Returns:
        ``(MARKER_HEIGHT, width)`` strip array.
    """
    if not 0 <= sequence < 2**MARKER_BITS:
        raise ValueError(f"sequence must fit in {MARKER_BITS} bits, got {sequence}")
    if width < MARKER_MIN_WIDTH:
        raise ValueError(f"marker needs width >= {MARKER_MIN_WIDTH}, got {width}")
    strip = np.zeros((MARKER_HEIGHT, width), dtype=dtype)
    edges = _cell_edges(width)
    for bit in range(MARKER_BITS):
        if (sequence >> (MARKER_BITS - 1 - bit)) & 1:
            strip[:, edges[bit] : edges[bit + 1]] = high_value
    return strip


def decode_marker(strip: np.ndarray, high_value: int) -> int:
    """Read a sequence number back from a (possibly distorted) strip."""
    strip = np.asarray(strip)
    if strip.ndim != 2 or strip.shape[0] != MARKER_HEIGHT:
        raise ValueError(f"expected ({MARKER_HEIGHT}, W) strip, got {strip.shape}")
    edges = _cell_edges(strip.shape[1])
    threshold = high_value / 2.0
    sequence = 0
    for bit in range(MARKER_BITS):
        cell = strip[:, edges[bit] : edges[bit + 1]]
        if float(cell.mean()) > threshold:
            sequence |= 1 << (MARKER_BITS - 1 - bit)
    return sequence
