"""One-Python-iteration-per-bit-plane bitfield packing.

The oracle for ``repro.codec.entropy._pack_bitfields`` /
``_unpack_bitfields``: codewords laid out MSB-first at the running sum
of their lengths, written one bit plane at a time into a per-bit array.
It defines the wire format; the package's word-level packer must
reproduce it byte for byte for codeword lengths 1..64, and its
fixed-width class packer for 5-bit codes.  The table-search bit length
is the oracle for the entropy coder's ``frexp`` bit lengths.
"""

from __future__ import annotations

import numpy as np


def _offsets(lengths: np.ndarray) -> np.ndarray:
    offsets = np.zeros(len(lengths), dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    return offsets


def pack_bitfields_scalar(codes: np.ndarray, lengths: np.ndarray) -> bytes:
    """Concatenate variable-length codewords MSB-first into bytes."""
    if len(codes) == 0:
        return b""
    codes = codes.astype(np.uint64)
    lengths = lengths.astype(np.int64)
    offsets = _offsets(lengths)
    bits = np.zeros(int(lengths.sum()), dtype=np.uint8)
    for bit in range(int(lengths.max())):
        mask = lengths > bit
        shift = (lengths[mask] - 1 - bit).astype(np.uint64)
        bits[offsets[mask] + bit] = ((codes[mask] >> shift) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits).tobytes()


def unpack_bitfields_scalar(data: bytes, lengths: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_bitfields_scalar` given the codeword lengths."""
    lengths = lengths.astype(np.int64)
    if len(lengths) == 0:
        return np.zeros(0, dtype=np.uint64)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    offsets = _offsets(lengths)
    codes = np.zeros(len(lengths), dtype=np.uint64)
    for bit in range(int(lengths.max())):
        mask = lengths > bit
        shift = (lengths[mask] - 1 - bit).astype(np.uint64)
        codes[mask] |= bits[offsets[mask] + bit].astype(np.uint64) << shift
    return codes


# All 64 powers of two: ``searchsorted`` against them is the exact bit
# length of any uint64.
_POW2 = np.uint64(1) << np.arange(64, dtype=np.uint64)


def bit_length_searchsorted(values: np.ndarray) -> np.ndarray:
    """Exact bit length of positive integers (the table-search oracle)."""
    return np.searchsorted(_POW2, values.astype(np.uint64), side="right").astype(np.int64)
