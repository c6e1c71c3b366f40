"""Edge-case and property tests for the codec stack."""

import dataclasses
import os
import subprocess
import sys
import textwrap
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.codec.entropy import (
    _HEADER,
    _magnitude_codes,
    _pack_bitfields,
    _pack_bitfields_segmented,
    _pack_classes,
    _unpack_bitfields,
    _unpack_classes,
    decode_levels,
    encode_levels,
    encode_levels_batch,
)
from repro.codec.frame import EncodedFrame, FrameType
from repro.codec.quant import QP_MAX_EXTENDED
from repro.codec.rate_control import RateController
from repro.codec.video import (
    _PLANE_HEADER,
    VideoCodecConfig,
    VideoDecoder,
    VideoEncoder,
)
from tests.reference.bitfields import (
    bit_length_searchsorted,
    pack_bitfields_scalar,
    unpack_bitfields_scalar,
)


class TestBitfieldPacking:
    @given(
        st.lists(st.integers(0, 2**20 - 1), min_size=0, max_size=200)
    )
    @settings(max_examples=40)
    def test_pack_unpack_roundtrip(self, values):
        codes = np.array(values, dtype=np.uint64)
        # Lengths must cover each code (at least its bit length).
        lengths = np.array(
            [max(int(v).bit_length(), 1) for v in values], dtype=np.int64
        )
        packed = _pack_bitfields(codes, lengths)
        unpacked = _unpack_bitfields(packed, lengths)
        np.testing.assert_array_equal(unpacked, codes)

    def test_empty_input(self):
        assert _pack_bitfields(np.zeros(0, dtype=np.uint64), np.zeros(0)) == b""
        assert len(_unpack_bitfields(b"", np.zeros(0, dtype=np.int64))) == 0

    def test_fixed_width_fields(self):
        codes = np.array([0b10110, 0b00001, 0b11111], dtype=np.uint64)
        lengths = np.full(3, 5, dtype=np.int64)
        unpacked = _unpack_bitfields(_pack_bitfields(codes, lengths), lengths)
        np.testing.assert_array_equal(unpacked, codes)


def _fields(pairs):
    """(length, code) pairs -> the (codes, lengths) arrays the packers take."""
    lengths = np.array([length for length, _ in pairs], dtype=np.int64)
    codes = np.array([code for _, code in pairs], dtype=np.uint64)
    return codes, lengths


_codeword = st.integers(1, 64).flatmap(
    lambda length: st.tuples(st.just(length), st.integers(0, 2**length - 1))
)


class TestBitfieldsAgainstReference:
    """The word-level packer vs the per-bit oracle in ``tests/reference``."""

    @given(st.lists(_codeword, min_size=1, max_size=150))
    # One codeword, at each width class: inside a word, exactly a word,
    # just past it (the high/low split), the full 64 bits.
    @example([(1, 1)])
    @example([(32, 2**32 - 1)])
    @example([(33, 2**32 + 1)])
    @example([(64, 2**64 - 1)])
    # Runs that straddle 32-bit word boundaries: a narrow codeword across
    # one boundary, a wide one across two, a split whose low half starts
    # exactly on a boundary.
    @example([(31, 2**31 - 1), (2, 0b10), (31, 1)])
    @example([(30, 0), (64, 2**63 + 1), (3, 0b101)])
    @example([(27, 5), (37, 2**36 + 3), (1, 1)])
    # Totals that are exact multiples of 32 bits: no padding bits and no
    # partial last word.
    @example([(5, 0b10101), (27, 2**27 - 1)])
    @example([(64, 1), (33, 2**32), (31, 7), (32, 2**31)])
    @settings(max_examples=150, deadline=None)
    def test_pack_unpack_match_reference(self, pairs):
        codes, lengths = _fields(pairs)
        packed = _pack_bitfields(codes, lengths)
        assert packed == pack_bitfields_scalar(codes, lengths)
        assert len(packed) == (int(lengths.sum()) + 7) // 8
        unpacked = _unpack_bitfields(packed, lengths)
        np.testing.assert_array_equal(unpacked, unpack_bitfields_scalar(packed, lengths))
        np.testing.assert_array_equal(unpacked, codes)

    @given(st.lists(_codeword, min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_unpack_rejects_short_stream(self, pairs):
        codes, lengths = _fields(pairs)
        packed = _pack_bitfields(codes, lengths)
        with pytest.raises(ValueError):
            _unpack_bitfields(packed[:-1], lengths)

    @given(
        st.lists(st.lists(_codeword, max_size=12), min_size=1, max_size=6),
        st.sampled_from(["first", "middle", "last", "none"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_segmented_pack_matches_per_segment_calls(self, segments, emptied):
        if emptied != "none":
            segments = [*segments, [(7, 3)], [(40, 2**39)]]  # at least three segments
            segments[{"first": 0, "middle": len(segments) // 2, "last": -1}[emptied]] = []
        codes, lengths = _fields([pair for segment in segments for pair in segment])
        counts = [len(segment) for segment in segments]
        expected = [pack_bitfields_scalar(*_fields(segment)) for segment in segments]
        assert _pack_bitfields_segmented(codes, lengths, counts) == expected


_class_code = st.integers(0, 31)
# Segment sizes around one 8-code group: empty, one code, a group short
# by one, exactly one, one past it -- and anything up to a few groups.
_class_segment = st.one_of(
    st.sampled_from([0, 1, 7, 8, 9]), st.integers(0, 40)
).flatmap(lambda count: st.lists(_class_code, min_size=count, max_size=count))


def _classes(segments):
    codes = np.array([code for segment in segments for code in segment], dtype=np.uint8)
    return codes, [len(segment) for segment in segments]


def _fives(count):
    return np.full(count, 5, dtype=np.int64)


class TestClassStream:
    """The fixed-width 5-bit class packer vs the per-bit oracle."""

    @given(_class_segment)
    @example([])
    @example([31])
    @example([31] * 7)
    @example([31] * 8)
    @example([0, 31, 1, 30, 2, 29, 3, 28, 4])
    @settings(max_examples=80, deadline=None)
    def test_pack_unpack_match_reference(self, segment):
        codes, counts = _classes([segment])
        (packed,) = _pack_classes(codes, counts)
        assert packed == pack_bitfields_scalar(codes, _fives(len(codes)))
        assert len(packed) == (5 * len(codes) + 7) // 8
        unpacked = _unpack_classes(packed, len(codes))
        assert unpacked.dtype == np.uint8
        np.testing.assert_array_equal(unpacked, codes)
        np.testing.assert_array_equal(
            unpacked, unpack_bitfields_scalar(packed, _fives(len(codes)))
        )

    @given(st.lists(_class_segment, min_size=1, max_size=8))
    @example([[], [], []])
    @example([[], [5] * 9, [], [31]])
    @example([[1] * 7, [2] * 8, [3] * 9, [4]])
    @settings(max_examples=80, deadline=None)
    def test_ragged_bucket_packs_each_segment_alone(self, segments):
        codes, counts = _classes(segments)
        expected = [_pack_classes(*_classes([segment]))[0] for segment in segments]
        assert _pack_classes(codes, counts) == expected
        assert expected == [
            pack_bitfields_scalar(np.array(segment, dtype=np.uint64), _fives(len(segment)))
            for segment in segments
        ]

    @given(_class_segment.filter(len))
    @settings(max_examples=40, deadline=None)
    def test_unpack_rejects_short_stream(self, segment):
        codes, counts = _classes([segment])
        (packed,) = _pack_classes(codes, counts)
        with pytest.raises(ValueError):
            _unpack_classes(packed[:-1], len(codes))

    def test_truncated_class_blob_raises(self):
        levels = np.zeros((4, 8, 8), dtype=np.int32)
        levels[:, 0, :3] = [[1, -2, 300]] * 4
        payload = encode_levels(levels)
        num_blocks, block_size, num_nonzero, significance_len, class_len = _HEADER.unpack_from(
            payload
        )
        start = _HEADER.size + significance_len
        classes = zlib.decompress(payload[start : start + class_len])
        short = zlib.compress(classes[:-1])
        forged = (
            _HEADER.pack(num_blocks, block_size, num_nonzero, significance_len, len(short))
            + payload[_HEADER.size : start]
            + short
            + payload[start + class_len :]
        )
        with pytest.raises(ValueError, match="class stream"):
            decode_levels(forged)

    def test_frexp_bit_lengths_match_table_search(self):
        values = np.array(
            [2**k + delta for k in range(33) for delta in (-1, 0, 1) if 2**k + delta > 0],
            dtype=np.int64,
        )
        expected = bit_length_searchsorted(values)
        fits = expected <= 32
        for signed in (values, -values):
            bit_lengths, _ = _magnitude_codes(signed[fits])
            np.testing.assert_array_equal(bit_lengths, expected[fits])
            for value in signed[~fits]:
                with pytest.raises(ValueError):
                    _magnitude_codes(np.array([value]))


_INT32_EXTREMES = [0, 1, -1, 2**31 - 1, -(2**31 - 1), -(2**31)]


class TestEntropyBucket:
    """A bucket encodes every stack as :func:`encode_levels` would alone."""

    @given(
        num_stacks=st.integers(1, 6),
        num_blocks=st.sampled_from([0, 1, 2, 5]),
        block_size=st.sampled_from([2, 4, 8]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_bucket_equals_per_stack_encodes(self, num_stacks, num_blocks, block_size, data):
        shape = (num_stacks, num_blocks, block_size, block_size)
        values = data.draw(
            st.lists(
                st.one_of(st.sampled_from(_INT32_EXTREMES), st.integers(-300, 300)),
                min_size=int(np.prod(shape)),
                max_size=int(np.prod(shape)),
            )
        )
        stacks = np.array(values, dtype=np.int32).reshape(shape)
        empty = data.draw(st.lists(st.integers(0, num_stacks - 1), max_size=num_stacks))
        stacks[empty] = 0
        payloads = encode_levels_batch(stacks)
        assert payloads == [encode_levels(stack) for stack in stacks]
        for payload, stack in zip(payloads, stacks):
            np.testing.assert_array_equal(decode_levels(payload), stack)


class TestEntropyEdgeCases:
    def test_all_zero_levels(self):
        levels = np.zeros((10, 8, 8), dtype=np.int32)
        blob = encode_levels(levels)
        np.testing.assert_array_equal(decode_levels(blob), levels)
        # All-zero content compresses to almost nothing.
        assert len(blob) < 80

    def test_single_block(self):
        levels = np.zeros((1, 4, 4), dtype=np.int32)
        levels[0, 0, 0] = -1
        np.testing.assert_array_equal(decode_levels(encode_levels(levels)), levels)

    def test_extreme_values(self):
        levels = np.zeros((2, 8, 8), dtype=np.int32)
        levels[0, 0, 0] = 2**20
        levels[1, 7, 7] = -(2**20)
        np.testing.assert_array_equal(decode_levels(encode_levels(levels)), levels)

    def test_int32_extremes_roundtrip(self):
        levels = np.zeros((3, 4, 4), dtype=np.int32)
        levels[0, 0, 0] = 2**31 - 1
        levels[1, 1, 2] = -(2**31 - 1)
        levels[2, 3, 3] = -(2**31)
        np.testing.assert_array_equal(decode_levels(encode_levels(levels)), levels)

    @pytest.mark.parametrize("num_blocks", [1, 3, 7])
    def test_decoded_plane_is_a_contiguous_int32_stack(self, num_blocks):
        rng = np.random.default_rng(num_blocks)
        levels = rng.choice(np.array(_INT32_EXTREMES, dtype=np.int32), size=(num_blocks, 8, 8))
        decoded = decode_levels(encode_levels(levels))
        assert decoded.dtype == np.int32 and decoded.flags.c_contiguous
        assert decoded.tobytes() == levels.tobytes()

    @pytest.mark.parametrize("value", [2**32, -(2**32), 2**40, -(2**63)])
    def test_magnitudes_past_32_bits_are_rejected(self, value):
        # The class stream has 5 bits; a wider magnitude used to wrap its
        # class and decode to different levels.
        levels = np.zeros((2, 4, 4), dtype=np.int64)
        levels[1, 2, 1] = value
        with pytest.raises(ValueError):
            encode_levels(levels)
        with pytest.raises(ValueError):
            encode_levels_batch(levels[None])

    def test_sparser_is_smaller(self):
        rng = np.random.default_rng(0)
        base = rng.integers(-100, 100, size=(40, 8, 8)).astype(np.int32)
        sparse = base.copy()
        sparse[np.abs(sparse) < 80] = 0
        very_sparse = base.copy()
        very_sparse[np.abs(very_sparse) < 95] = 0
        sizes = [len(encode_levels(x)) for x in (base, sparse, very_sparse)]
        assert sizes[0] > sizes[1] > sizes[2]


def _valid_payloads() -> list[bytes]:
    rng = np.random.default_rng(11)
    sparse = np.where(
        rng.random((20, 8, 8)) < 0.15, rng.integers(-900, 900, (20, 8, 8)), 0
    ).astype(np.int32)
    dense = rng.integers(-40, 40, (6, 4, 4)).astype(np.int32)
    return [
        encode_levels(sparse),
        encode_levels(dense, effort=1),
        encode_levels(np.zeros((5, 8, 8), dtype=np.int32)),
    ]


_PAYLOADS = _valid_payloads()

_mutation = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True), st.just(0)),
    st.tuples(st.just("flip"), st.floats(0, 1, exclude_max=True), st.integers(0, 7)),
    # The 18 header bytes: counts, block size and stream lengths.
    st.tuples(st.just("header"), st.integers(0, 17), st.integers(0, 255)),
)


def _mutate(payload: bytes, mutation) -> bytes:
    kind, where, value = mutation
    if kind == "truncate":
        return payload[: int(where * len(payload))]
    mutated = bytearray(payload)
    if kind == "flip" and mutated:
        mutated[int(where * len(mutated))] ^= 1 << value
    elif kind == "header" and where < len(mutated):  # not cut off by a truncation
        mutated[where] = value
    return bytes(mutated)


class TestDecodeLevelsFuzz:
    """``decode_levels`` reads the network: malformed input is a ``ValueError``."""

    @given(st.sampled_from(_PAYLOADS), st.lists(_mutation, min_size=1, max_size=3))
    @settings(max_examples=400, deadline=None)
    def test_mutated_payload_decodes_or_raises_value_error(self, payload, mutations):
        for mutation in mutations:
            payload = _mutate(payload, mutation)
        try:
            levels = decode_levels(payload)
        except ValueError:
            return
        assert levels.dtype == np.int32 and levels.ndim == 3
        assert levels.shape[1] == levels.shape[2] >= 1

    def test_hostile_header_fields_under_address_space_limit(self):
        # Each rewrite used to size an allocation from the header alone;
        # the worst ones get the interpreter OOM-killed rather than
        # raising.  A child under RLIMIT_AS turns a regression into a
        # failed test instead of a killed runner.
        script = textwrap.dedent(
            """
            import resource
            import struct

            import numpy as np

            from repro.codec.entropy import decode_levels, encode_levels

            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            rng = np.random.default_rng(5)
            payload = encode_levels(rng.integers(-50, 50, (12, 8, 8)).astype(np.int32))
            rewrites = {
                "num_blocks=2**32-1": (0, "<I", 2**32 - 1),
                "block_size=65535": (4, "<H", 65535),
                "block_size=0": (4, "<H", 0),
                "num_nonzero=2**32-1": (6, "<I", 2**32 - 1),
                "num_blocks=2**26": (0, "<I", 2**26),
            }
            for name, (offset, fmt, value) in rewrites.items():
                hostile = bytearray(payload)
                struct.pack_into(fmt, hostile, offset, value)
                try:
                    decode_levels(bytes(hostile))
                except ValueError:
                    continue
                raise SystemExit(f"{name}: decoded instead of raising ValueError")
            # No coefficient bounds the block size of an empty stack.
            empty = bytearray(encode_levels(np.zeros((0, 8, 8), dtype=np.int32)))
            struct.pack_into("<H", empty, 4, 65535)
            assert decode_levels(bytes(empty)).shape == (0, 65535, 65535)
            print("survived")
            """
        )
        source_root = str(Path(__file__).resolve().parents[1] / "src")
        child = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": source_root},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr[-2000:]
        assert child.stdout.strip() == "survived"


class TestCodecEdgeCases:
    def test_tiny_image(self):
        image = np.random.default_rng(0).integers(0, 256, (5, 7, 3)).astype(np.uint8)
        config = VideoCodecConfig(gop_size=2)
        encoder, decoder = VideoEncoder(config), VideoDecoder(config)
        encoded, recon = encoder.encode(image, qp=10)
        np.testing.assert_array_equal(decoder.to_image(decoder.decode(encoded)), recon)
        assert recon.shape == image.shape

    def test_uniform_image_compresses_tiny(self):
        image = np.full((48, 64, 3), 128, dtype=np.uint8)
        encoder = VideoEncoder(VideoCodecConfig(gop_size=1))
        encoded, recon = encoder.encode(image, qp=20)
        assert encoded.size_bytes < 700
        assert np.abs(recon.astype(int) - 128).max() <= 2

    def test_static_video_p_frames_nearly_free(self):
        image = np.random.default_rng(1).integers(0, 256, (48, 64, 3)).astype(np.uint8)
        encoder = VideoEncoder(VideoCodecConfig(gop_size=10))
        first, _ = encoder.encode(image, qp=20)
        second, recon = encoder.encode(image, qp=20)
        assert second.size_bytes < first.size_bytes / 10
        # And the reconstruction does not drift.
        third, recon3 = encoder.encode(image, qp=20)
        np.testing.assert_array_equal(recon3, recon)

    def test_max_extended_qp_on_16bit(self):
        image = np.random.default_rng(2).integers(0, 65536, (24, 32)).astype(np.uint16)
        encoder = VideoEncoder(VideoCodecConfig.for_depth(gop_size=1))
        encoded, _ = encoder.encode(image, qp=QP_MAX_EXTENDED)
        assert encoded.size_bytes < 2500  # crushed almost flat

    def test_extended_qp_rejected_for_color(self):
        image = np.zeros((16, 16, 3), dtype=np.uint8)
        encoder = VideoEncoder(VideoCodecConfig(gop_size=1))
        with pytest.raises(ValueError):
            encoder.encode(image, qp=60)

    def test_decoder_requires_matching_plane_count(self):
        config = VideoCodecConfig(gop_size=1)
        encoder = VideoEncoder(config)
        encoded, _ = encoder.encode(np.zeros((16, 16, 3), dtype=np.uint8), qp=20)
        # Corrupt the payload: truncate it.
        broken = EncodedFrame(
            encoded.frame_type, encoded.pixel_format, encoded.qp, encoded.sequence,
            encoded.height, encoded.width, encoded.payload[:3],
        )
        with pytest.raises(ValueError):
            VideoDecoder(config).decode(broken)

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda payload: payload[:1], id="cut_to_count"),
            pytest.param(lambda payload: payload[:5], id="cut_to_5_bytes"),
            pytest.param(lambda payload: payload[: len(payload) // 2], id="cut_in_half"),
            pytest.param(lambda payload: b"\x09" + payload[1:], id="count_9"),
        ],
    )
    def test_decoder_rejects_a_bad_plane_table(self, corrupt):
        config = VideoCodecConfig(gop_size=1)
        encoded, _ = VideoEncoder(config).encode(
            np.zeros((16, 16, 3), dtype=np.uint8), qp=20
        )
        assert encoded.payload[0] == 3
        broken = EncodedFrame(
            encoded.frame_type, encoded.pixel_format, encoded.qp, encoded.sequence,
            encoded.height, encoded.width, corrupt(encoded.payload),
        )
        with pytest.raises(ValueError):
            VideoDecoder(config).decode(broken)

    def test_reset_mid_stream(self):
        rng = np.random.default_rng(3)
        frames = [rng.integers(0, 256, (24, 32, 3)).astype(np.uint8) for _ in range(3)]
        config = VideoCodecConfig(gop_size=100)
        encoder, decoder = VideoEncoder(config), VideoDecoder(config)
        decoder.decode(encoder.encode(frames[0], qp=20)[0])
        encoder.reset()
        encoded, recon = encoder.encode(frames[1], qp=20)
        assert encoded.frame_type is FrameType.INTRA
        decoder.reset()
        np.testing.assert_array_equal(decoder.to_image(decoder.decode(encoded)), recon)

    @given(qp=st.integers(0, 51))
    @settings(max_examples=10, deadline=None)
    def test_encoder_decoder_agree_property(self, qp):
        rng = np.random.default_rng(qp)
        image = rng.integers(0, 256, (16, 24, 3)).astype(np.uint8)
        config = VideoCodecConfig(gop_size=1)
        encoder, decoder = VideoEncoder(config), VideoDecoder(config)
        encoded, recon = encoder.encode(image, qp=qp)
        np.testing.assert_array_equal(decoder.to_image(decoder.decode(encoded)), recon)


def _forge_motion_vectors(frame: EncodedFrame, mv_bytes: bytes) -> EncodedFrame:
    """``frame`` with plane 0's motion-vector stream replaced."""
    _, mv_len, level_len = _PLANE_HEADER.unpack_from(frame.payload, 1)
    rest = frame.payload[1 + _PLANE_HEADER.size + mv_len :]
    header = _PLANE_HEADER.pack(1, len(mv_bytes), level_len)
    return dataclasses.replace(frame, payload=frame.payload[:1] + header + mv_bytes + rest)


class TestForgedMotionVectors:
    """A motion-vector stream is outside input: it decodes or raises ValueError."""

    NUM_BLOCKS = 3 * 4          # 24 x 32 depth plane, 8 x 8 blocks

    @pytest.fixture
    def stream(self):
        rng = np.random.default_rng(11)
        images = [rng.integers(0, 65536, (24, 32)).astype(np.uint16) for _ in range(2)]
        config = VideoCodecConfig.for_depth(gop_size=10)
        encoder, decoder = VideoEncoder(config), VideoDecoder(config)
        decoder.decode(encoder.encode(images[0], qp=20)[0])
        inter, recon = encoder.encode(images[1], qp=20)
        assert inter.frame_type is FrameType.INTER
        return decoder, inter, recon

    def test_untouched_stream_survives_the_forging_helper(self, stream):
        decoder, inter, recon = stream
        _, mv_len, _ = _PLANE_HEADER.unpack_from(inter.payload, 1)
        mv_bytes = inter.payload[1 + _PLANE_HEADER.size :][:mv_len]
        assert len(zlib.decompress(mv_bytes)) == self.NUM_BLOCKS
        np.testing.assert_array_equal(
            decoder.to_image(decoder.decode(_forge_motion_vectors(inter, mv_bytes))), recon
        )

    @pytest.mark.parametrize(
        "forged",
        [
            pytest.param(zlib.compress(b"\x00"), id="one-index-for-every-block"),
            pytest.param(zlib.compress(bytes(NUM_BLOCKS - 1)), id="one-short"),
            pytest.param(zlib.compress(bytes(NUM_BLOCKS + 1)), id="one-long"),
            pytest.param(zlib.compress(b""), id="empty"),
            pytest.param(zlib.compress(bytes([9] * NUM_BLOCKS)), id="index-past-window"),
            pytest.param(zlib.compress(bytes([255] * NUM_BLOCKS)), id="index-255"),
            pytest.param(b"not a zlib stream", id="not-zlib"),
        ],
    )
    def test_forged_stream_raises_value_error(self, stream, forged):
        decoder, inter, _ = stream
        with pytest.raises(ValueError):
            decoder.decode(_forge_motion_vectors(inter, forged))


class TestRateControllerEdges:
    def test_first_frame_uses_initial_qp(self):
        controller = RateController(initial_qp=37)
        assert controller.propose_qp(10_000) == 37

    def test_alpha_smoothing_converges(self):
        controller = RateController(initial_qp=30, smoothing=0.5)
        # Repeated identical observations: alpha settles, proposals stabilize.
        for _ in range(20):
            controller.update(30, 5000, 5000)
        stable = controller.propose_qp(5000)
        controller.update(30, 5000, 5000)
        assert controller.propose_qp(5000) == stable

    def test_zero_size_update_ignored(self):
        controller = RateController()
        controller.update(30, 0, 1000)
        assert controller.propose_qp(1000) == controller.last_qp

    def test_extended_range_controller(self):
        controller = RateController(initial_qp=60, qp_max=QP_MAX_EXTENDED)
        controller.update(60, 50_000, 1000)
        # Needs much higher QP; clamped by max_step per frame.
        assert controller.propose_qp(1000) <= 60 + controller.max_step
