"""Entropy coding of quantized coefficient stacks.

Quantized levels are scanned in zigzag order within each block (low to
high frequency) and laid out coefficient-major across blocks so that
same-frequency coefficients are adjacent.  They are then coded in three
bit-level streams, CAVLC-style:

1. a **significance bitmap** -- one bit per coefficient (zero or not);
   long zero runs cost almost nothing after DEFLATE;
2. a **length-class stream** -- 5 bits per nonzero coefficient giving
   the magnitude's bit length;
3. a **magnitude stream** -- for each nonzero coefficient, its
   magnitude without the implicit leading 1, plus a sign bit.

Every stream passes through DEFLATE.  Working at bit granularity
matters: a byte-oriented stage would charge every nonzero coefficient a
whole byte regardless of its information content, systematically
distorting rate comparisons between 8-bit and 16-bit content (exactly
the comparison LiVo's depth scaling makes).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

__all__ = [
    "zigzag_indices",
    "encode_levels",
    "encode_levels_batch",
    "decode_levels",
]

_ZIGZAG_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def zigzag_indices(block_size: int) -> np.ndarray:
    """Flat indices that traverse a ``B x B`` block in zigzag order.

    The returned array is the cached instance itself, marked read-only:
    a caller mutating it would otherwise silently corrupt every later
    encode/decode using the same block size.
    """
    return _zigzag_tables(block_size)[0]


def _zigzag_tables(block_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The zigzag order of a ``B x B`` block and its inverse (the scan
    position of each flat index), cached and read-only."""
    if block_size in _ZIGZAG_CACHE:
        return _ZIGZAG_CACHE[block_size]
    order = sorted(
        range(block_size * block_size),
        key=lambda idx: _zigzag_key(idx // block_size, idx % block_size),
    )
    indices = np.array(order, dtype=np.int64)
    inverse = np.argsort(indices)
    indices.setflags(write=False)
    inverse.setflags(write=False)
    tables = _ZIGZAG_CACHE[block_size] = (indices, inverse)
    return tables


def _zigzag_key(row: int, col: int) -> tuple[int, int]:
    diagonal = row + col
    # Even diagonals run bottom-left to top-right, odd the other way.
    within = col if diagonal % 2 == 0 else row
    return diagonal, within


# ----------------------------------------------------------------------
# Word-level variable-length bitfield packing
# ----------------------------------------------------------------------
#
# Codewords are laid out MSB-first at bit offsets given by the running
# sum of the codeword lengths, and the stream is read as big-endian
# 32-bit words.  A codeword of at most 32 bits starting at bit ``o``
# touches word ``o >> 5`` and at most the next one, so it always fits a
# 64-bit window laid over that word pair: packing shifts each codeword
# into its window and sums the window halves per word (codewords never
# overlap, so the sum is the OR, and a sum below 2**32 is exact in the
# float64 ``np.bincount`` accumulates in); unpacking reads the window
# back, shifts and masks.  Codewords wider than 32 bits are split into
# a high part and a low 32-bit part that go through the same windows.
# Time and memory are linear in the number of codewords.

_WORD = np.uint64(32)
_LOW_WORD = np.uint64(0xFFFFFFFF)


def _low_bits_mask(lengths: np.ndarray) -> np.ndarray:
    return (np.uint64(1) << lengths.astype(np.uint64)) - np.uint64(1)


def _window_slots(ends: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First word of each codeword's 64-bit window, and its shift inside it."""
    offsets = ends - lengths
    return offsets >> 5, (64 - (offsets & 31) - lengths).astype(np.uint64)


def _pack_bitfields(codes: np.ndarray, lengths: np.ndarray) -> bytes:
    """Concatenate variable-length codewords (1..64 bits) MSB-first into bytes."""
    if len(codes) == 0:
        return b""
    codes = codes.astype(np.uint64)
    lengths = lengths.astype(np.int64)
    ends = np.cumsum(lengths)
    total_bits = int(ends[-1])
    wide = lengths > 32
    if wide.any():
        # The high part keeps the codeword's slot; the low 32 bits are
        # appended (the per-word sum does not care about order).
        low_ends = ends[wide]
        codes = np.concatenate([np.where(wide, codes >> _WORD, codes), codes[wide] & _LOW_WORD])
        ends = np.concatenate([np.where(wide, ends - 32, ends), low_ends])
        lengths = np.concatenate(
            [np.where(wide, lengths - 32, lengths), np.full(len(low_ends), 32)]
        )
    word, shifts = _window_slots(ends, lengths)
    windows = (codes & _low_bits_mask(lengths)) << shifts
    num_words = (total_bits + 31) // 32 + 1
    words = np.bincount(word, weights=windows >> _WORD, minlength=num_words)
    words[1:] += np.bincount(word, weights=windows & _LOW_WORD, minlength=num_words)[:-1]
    return words.astype(">u4").tobytes()[: (total_bits + 7) // 8]


def _pack_bitfields_segmented(
    codes: np.ndarray, lengths: np.ndarray, counts: np.ndarray
) -> list[bytes]:
    """Pack consecutive codeword runs, each into its own byte stream.

    ``counts[s]`` codewords belong to segment ``s``; the return value is
    one byte string per segment, byte-identical to calling
    :func:`_pack_bitfields` on that segment alone.  Packing runs per
    segment on purpose: every segment starts its own byte-aligned
    stream, and a fused scatter holds every bucket-wide intermediate at
    once.  Buckets are cohort-sized (the batch plane's
    ``LOCKSTEP_COHORT``), which bounds that cost, but the fused scatter
    bought no throughput when it was measured (DESIGN.md section 9).
    The batched entropy coder's win comes from sharing the surrounding
    zigzag/significance/magnitude math and the fixed-width class pack
    (:func:`_pack_classes`), not from fusing this scatter.
    """
    counts = np.asarray(counts, dtype=np.int64)
    bounds = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return [
        _pack_bitfields(
            codes[bounds[index] : bounds[index + 1]],
            lengths[bounds[index] : bounds[index + 1]],
        )
        for index in range(len(counts))
    ]


def _unpack_bitfields(data: bytes, lengths: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_pack_bitfields` given the codeword lengths.

    Raises ``ValueError`` when ``data`` is shorter than the lengths sum to.
    """
    lengths = lengths.astype(np.int64)
    if len(lengths) == 0:
        return np.zeros(0, dtype=np.uint64)
    ends = np.cumsum(lengths)
    total_bits = int(ends[-1])
    if total_bits > 8 * len(data):
        raise ValueError(f"bit stream holds {8 * len(data)} bits, codewords need {total_bits}")
    num_bytes = 4 * ((total_bits + 31) // 32 + 1)
    words = np.frombuffer(data[:num_bytes].ljust(num_bytes, b"\0"), dtype=">u4").astype(np.uint64)
    windows = (words[:-1] << _WORD) | words[1:]

    def gather(ends: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        word, shifts = _window_slots(ends, lengths)
        return (windows[word] >> shifts) & _low_bits_mask(lengths)

    wide = lengths > 32
    if not wide.any():
        return gather(ends, lengths)
    codes = gather(np.where(wide, ends - 32, ends), np.where(wide, lengths - 32, lengths))
    codes[wide] = (codes[wide] << _WORD) | gather(ends[wide], np.full(int(wide.sum()), 32))
    return codes


# ----------------------------------------------------------------------
# Fixed-width class stream
# ----------------------------------------------------------------------
#
# Every class code is 5 bits, so eight codes fill exactly five bytes.
# A class stream is whole 40-bit groups, MSB-first, its last group
# zero-padded and cut to the ``ceil(5 n / 8)`` bytes its ``n`` codes
# need: byte for byte what the variable-length packer writes for
# 5-bit codewords.  Each output byte is a few column shifts of the
# ``(groups, 8)`` code matrix (and each code a few of the ``(groups,
# 5)`` byte matrix), so nothing is sized per bit or per word.

_GROUP_CODES = 8   # 5-bit codes per group ...
_GROUP_BYTES = 5   # ... and the bytes they fill


def _class_stream_bytes(count: int) -> int:
    return (5 * count + 7) // 8


def _pack_classes(classes: np.ndarray, counts: np.ndarray) -> list[bytes]:
    """Pack 5-bit class codes into one byte stream per segment.

    ``counts[s]`` consecutive codes belong to segment ``s``.  Every
    segment is padded to whole groups, so a bucket of segments packs in
    one pass and each stream is a slice of the result, byte-identical to
    packing that segment alone.
    """
    counts = np.asarray(counts, dtype=np.int64)
    group_starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(-(-counts // _GROUP_CODES), out=group_starts[1:])
    code_starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=code_starts[1:])
    codes = np.zeros((int(group_starts[-1]), _GROUP_CODES), dtype=np.uint8)
    # Each code moves right by its segment's padding so far.
    padding = np.repeat(_GROUP_CODES * group_starts[:-1] - code_starts[:-1], counts)
    codes.reshape(-1)[np.arange(len(classes)) + padding] = classes
    packed = np.empty((len(codes), _GROUP_BYTES), dtype=np.uint8)
    packed[:, 0] = (codes[:, 0] << 3) | (codes[:, 1] >> 2)
    packed[:, 1] = (codes[:, 1] << 6) | (codes[:, 2] << 1) | (codes[:, 3] >> 4)
    packed[:, 2] = (codes[:, 3] << 4) | (codes[:, 4] >> 1)
    packed[:, 3] = (codes[:, 4] << 7) | (codes[:, 5] << 2) | (codes[:, 6] >> 3)
    packed[:, 4] = (codes[:, 6] << 5) | codes[:, 7]
    stream = packed.tobytes()
    return [
        stream[_GROUP_BYTES * start : _GROUP_BYTES * start + _class_stream_bytes(count)]
        for start, count in zip(group_starts[:-1].tolist(), counts.tolist())
    ]


def _unpack_classes(data: bytes, count: int) -> np.ndarray:
    """``count`` 5-bit class codes out of a class stream (uint8).

    Raises ``ValueError`` when ``data`` is shorter than ``count`` codes need.
    """
    needed = _class_stream_bytes(count)
    if len(data) < needed:
        raise ValueError(f"class stream holds {len(data)} bytes, {count} classes need {needed}")
    num_bytes = _GROUP_BYTES * -(-count // _GROUP_CODES)
    packed = np.frombuffer(data[:num_bytes].ljust(num_bytes, b"\0"), dtype=np.uint8)
    packed = packed.reshape(-1, _GROUP_BYTES)
    codes = np.empty((len(packed), _GROUP_CODES), dtype=np.uint8)
    codes[:, 0] = packed[:, 0] >> 3
    codes[:, 1] = ((packed[:, 0] & 7) << 2) | (packed[:, 1] >> 6)
    codes[:, 2] = (packed[:, 1] >> 1) & 31
    codes[:, 3] = ((packed[:, 1] & 1) << 4) | (packed[:, 2] >> 4)
    codes[:, 4] = ((packed[:, 2] & 15) << 1) | (packed[:, 3] >> 7)
    codes[:, 5] = (packed[:, 3] >> 2) & 31
    codes[:, 6] = ((packed[:, 3] & 3) << 3) | (packed[:, 4] >> 5)
    codes[:, 7] = packed[:, 4] & 31
    return codes.reshape(-1)[:count]


# ----------------------------------------------------------------------
# Level stream encode / decode
# ----------------------------------------------------------------------


def _magnitude_codes(nonzero: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bit lengths and magnitude codewords of nonzero int64 levels."""
    magnitudes = np.abs(nonzero).astype(np.uint64)
    # frexp's exponent is the bit length of every integer float64 holds
    # exactly, which covers all of int32.  A magnitude past 2**32 may
    # round, but its exponent is still at least 33.
    bit_lengths = np.frexp(nonzero.astype(np.float64))[1].astype(np.int64)
    if len(bit_lengths) and bit_lengths.max() > 32:
        # The class stream has 5 bits: a wider magnitude would wrap its
        # class and decode to different levels.
        raise ValueError("level magnitudes must fit 32 bits (int32 levels)")
    # Magnitude without its implicit leading 1, then the sign bit.
    mantissas = magnitudes & _low_bits_mask(bit_lengths - 1)
    return bit_lengths, (mantissas << np.uint64(1)) | (nonzero < 0).astype(np.uint64)


# num_blocks, block_size, num_nonzero, len(significance blob), len(class blob)
_HEADER = struct.Struct("<IHIII")


def encode_levels(levels: np.ndarray, effort: int = 6) -> bytes:
    """Serialize an ``(N, B, B)`` int32 level stack to compressed bytes.

    ``effort`` maps to the DEFLATE level (1 fast .. 9 thorough), modeling
    the speed/ratio knob hardware encoders expose.
    """
    if levels.ndim != 3 or levels.shape[1] != levels.shape[2]:
        raise ValueError(f"expected (N, B, B) levels, got {levels.shape}")
    return encode_levels_batch(levels[None], effort)[0]


def encode_levels_batch(stacks: np.ndarray, effort: int = 6) -> list[bytes]:
    """Serialize ``(S, N, B, B)`` level stacks to ``S`` compressed payloads.

    The zigzag reorder, significance bitmap, magnitude-class math and
    the fixed-width class pack run once over the whole stack.  The
    variable-length magnitude pack and the DEFLATE calls stay per stack
    (each payload is an independent bit stream -- see
    :func:`_pack_bitfields_segmented`), so a payload does not depend on
    which other stacks it was encoded with.
    """
    if stacks.ndim != 4 or stacks.shape[2] != stacks.shape[3]:
        raise ValueError(f"expected (S, N, B, B) level stacks, got {stacks.shape}")
    if not 1 <= effort <= 9:
        raise ValueError("effort must be in [1, 9]")
    num_stacks, num_blocks, block_size, _ = stacks.shape
    zigzag = zigzag_indices(block_size)
    flat = (
        stacks.reshape(num_stacks, num_blocks, block_size * block_size)[:, :, zigzag]
        .transpose(0, 2, 1)
        .reshape(num_stacks, -1)
    )

    significant = flat != 0                                    # (S, M)
    significance_rows = np.packbits(significant, axis=1)       # (S, ceil(M/8))
    counts = significant.sum(axis=1)

    nonzero = flat[significant].astype(np.int64)               # stack-major
    bit_lengths, codes = _magnitude_codes(nonzero)
    class_streams = _pack_classes((bit_lengths - 1).astype(np.uint8), counts)
    magnitude_streams = _pack_bitfields_segmented(codes, bit_lengths, counts)

    payloads = []
    for index in range(num_stacks):
        significance_blob = zlib.compress(significance_rows[index].tobytes(), effort)
        class_blob = zlib.compress(class_streams[index], effort)
        header = _HEADER.pack(
            num_blocks, block_size, counts[index], len(significance_blob), len(class_blob)
        )
        magnitude_blob = zlib.compress(magnitude_streams[index], effort)
        payloads.append(header + significance_blob + class_blob + magnitude_blob)
    return payloads


def _inflate(blob: bytes, stream: str) -> bytes:
    try:
        return zlib.decompress(blob)
    except zlib.error as error:
        raise ValueError(f"corrupt {stream} stream: {error}") from error


def decode_levels(data: bytes) -> np.ndarray:
    """Inverse of :func:`encode_levels`.

    The payload comes off the network: every header field is checked
    against the streams it describes *before* anything is sized from it,
    and any malformed payload raises ``ValueError``.
    """
    if len(data) < _HEADER.size:
        raise ValueError("truncated entropy payload")
    num_blocks, block_size, num_nonzero, significance_len, class_len = _HEADER.unpack_from(data)
    cursor = _HEADER.size
    significance_blob = data[cursor : cursor + significance_len]
    cursor += significance_len
    class_blob = data[cursor : cursor + class_len]
    cursor += class_len
    magnitude_blob = data[cursor:]

    if block_size < 1:
        raise ValueError("entropy payload declares block size 0")
    total = num_blocks * block_size * block_size
    significance = np.frombuffer(_inflate(significance_blob, "significance"), dtype=np.uint8)
    if total > 8 * len(significance):
        raise ValueError(
            f"entropy payload declares {total} coefficients, "
            f"significance bitmap holds {8 * len(significance)}"
        )
    significant = np.unpackbits(significance, count=total).view(bool)
    if num_nonzero != np.count_nonzero(significant):
        raise ValueError("entropy payload nonzero count disagrees with its significance bitmap")
    if num_blocks == 0:
        # Nothing bounds block_size here, so do not build its zigzag.
        return np.zeros((0, block_size, block_size), dtype=np.int32)
    # Coefficient-major scan order: row ``k`` holds zigzag coefficient
    # ``k`` of every block.
    scan = np.zeros(total, dtype=np.int32)

    if num_nonzero:
        bit_lengths = _unpack_classes(_inflate(class_blob, "class"), num_nonzero).astype(
            np.int64
        ) + 1
        # A 5-bit class caps a codeword at 32 bits, so int64 holds it,
        # its magnitude and the negated magnitude exactly.
        codes = _unpack_bitfields(_inflate(magnitude_blob, "magnitude"), bit_lengths).astype(
            np.int64
        )
        magnitudes = (codes >> 1) | (1 << (bit_lengths - 1))
        scan[significant] = magnitudes * (1 - 2 * (codes & 1))

    # One gather puts each block's coefficients back in natural order.
    inverse = _zigzag_tables(block_size)[1]
    levels = scan.reshape(block_size * block_size, num_blocks)[inverse].T
    return np.ascontiguousarray(levels).reshape(num_blocks, block_size, block_size)
