"""Tests for the video encoder/decoder and rate control."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.codec import rate_control
from repro.codec.blocks import DEFAULT_BLOCK_SIZE, block_grid_shape
from repro.codec.frame import EncodedFrame, FrameType, PixelFormat
from repro.codec.motion import gather_prediction, motion_batch, search_offsets
from repro.codec.quant import DEAD_ZONE_OFFSET, QP_MAX_EXTENDED, QP_MIN, qp_to_step, weight_matrix
from repro.codec.rate_control import RateController
from repro.codec.video import VideoCodecConfig, VideoDecoder, VideoEncoder
from repro.runtime.batchplane import drive_serial
from tests.reference.motion import (
    estimate_motion,
    gather_prediction_stacked,
    motion_single,
    shifted_planes,
)


def moving_gradient_video(num_frames=6, height=48, width=64, channels=3, shift=2):
    """A smooth gradient translating horizontally: compressible, with motion."""
    frames = []
    base = np.zeros((height, width * 2))
    xs = np.linspace(0, 4 * np.pi, width * 2)
    base[:] = 127 + 90 * np.sin(xs)[None, :]
    base += 30 * np.cos(np.linspace(0, 2 * np.pi, height))[:, None]
    for index in range(num_frames):
        window = base[:, index * shift : index * shift + width]
        if channels == 3:
            frame = np.stack([window, window * 0.8, window * 0.6], axis=-1)
            frames.append(np.clip(frame, 0, 255).astype(np.uint8))
        else:
            frames.append(np.clip(window * 200, 0, 65535).astype(np.uint16))
    return frames


class TestMotion:
    def test_search_offsets_zero_first(self):
        offsets = search_offsets(1)
        assert offsets[0] == (0, 0)
        assert len(offsets) == 9

    def test_search_offsets_zero_range(self):
        assert search_offsets(0) == [(0, 0)]

    def test_shifted_planes_shapes(self):
        ref = np.arange(30, dtype=float).reshape(5, 6)
        stack = shifted_planes(ref, search_offsets(1))
        assert stack.shape == (9, 5, 6)
        np.testing.assert_array_equal(stack[0], ref)

    def test_shift_direction(self):
        ref = np.zeros((6, 6))
        ref[2, 2] = 1.0
        # Offset (dy, dx) = (1, 0) reads one row lower: predictor for the
        # frame content having moved up.
        stack = shifted_planes(ref, [(1, 0)])
        assert stack[0][1, 2] == 1.0

    def test_estimate_motion_recovers_translation(self):
        rng = np.random.default_rng(0)
        ref = rng.normal(size=(32, 32))
        current = np.roll(ref, shift=-1, axis=0)  # moved up by one pixel
        offsets = search_offsets(2)
        stack = shifted_planes(ref, offsets)
        mv_index, cost = estimate_motion(current, stack, block_size=8)
        # Interior blocks should all pick offset (1, 0).
        assert offsets[int(np.bincount(mv_index).argmax())] == (1, 0)
        batch_mv, _ = motion_batch(current[None], ref[None], offsets, block_size=8)
        np.testing.assert_array_equal(batch_mv[0], mv_index)

    def test_gather_prediction_selects_per_block(self):
        ref = np.arange(64, dtype=float).reshape(8, 8)
        offsets = [(0, 0), (1, 0)]
        stack = shifted_planes(ref, offsets)
        mv_index = np.array([1], dtype=np.uint8)
        predictor = gather_prediction(ref, offsets, mv_index, block_size=8)
        np.testing.assert_array_equal(predictor[0], stack[1])

    @given(
        st.integers(1, 40), st.integers(1, 40), st.integers(0, 2),
        st.sampled_from([2, 4, 8]), st.integers(0, 2**32 - 1),
    )
    @example(250, 333, 1, 8, 0)
    @example(250, 333, 2, 8, 1)
    @example(250, 333, 0, 8, 2)
    @settings(max_examples=120, deadline=None)
    def test_gather_prediction_matches_stacked_reference(
        self, height, width, search_range, block_size, seed
    ):
        rng = np.random.default_rng(seed)
        reference = rng.normal(scale=50.0, size=(height, width))
        offsets = search_offsets(search_range)
        rows, cols = block_grid_shape(height, width, block_size)
        mv_index = rng.integers(0, len(offsets), size=rows * cols).astype(np.uint8)
        got = gather_prediction(reference, offsets, mv_index, block_size)
        want = gather_prediction_stacked(reference, offsets, mv_index, block_size)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @given(
        st.integers(1, 40), st.integers(1, 40), st.integers(0, 2),
        st.sampled_from([2, 4, 8]), st.sampled_from(["noise", "constant", "two_level"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_motion_batch_matches_stacked_reference(
        self, height, width, search_range, block_size, content, seed
    ):
        # Constant and two-level planes make many offsets tie on SAD:
        # each block must then keep the lowest offset index, as the
        # oracle's argmin does.
        rng = np.random.default_rng(seed)
        shape = (3, height, width)
        if content == "noise":
            references = rng.normal(scale=50.0, size=shape)
            planes = references + rng.normal(scale=5.0, size=shape)
        elif content == "constant":
            references = np.full(shape, 7.0)
            planes = np.full(shape, float(rng.integers(0, 3)) * 7.0)
        else:
            references = rng.integers(0, 2, size=shape) * 100.0
            planes = rng.integers(0, 2, size=shape) * 100.0
        offsets = search_offsets(search_range)
        expected = [
            motion_single(plane, reference, offsets, block_size)
            for plane, reference in zip(planes, references)
        ]
        for stack in (slice(0, 1), slice(0, 3)):
            mv_index, predictor = motion_batch(
                planes[stack], references[stack], offsets, block_size
            )
            for index, (want_mv, want_predictor) in enumerate(expected[stack]):
                assert mv_index.dtype == want_mv.dtype
                assert mv_index[index].tobytes() == want_mv.tobytes()
                assert predictor[index].tobytes() == want_predictor.tobytes()
        for reference, (want_mv, want_predictor) in zip(references, expected):
            got = gather_prediction(reference, offsets, want_mv, block_size)
            assert got.tobytes() == want_predictor.tobytes()

    @pytest.mark.parametrize("search_range", [1, 2])
    @pytest.mark.parametrize("corner", [-1, 1])
    def test_gather_prediction_reads_the_clamped_edge(self, search_range, corner):
        # Every block points diagonally off the plane: border blocks read
        # the radius padding, and a 250 x 333 plane's last block row and
        # column read past the plane on the other side as well.
        reference = np.arange(250 * 333, dtype=np.float64).reshape(250, 333)
        offsets = search_offsets(search_range)
        winner = offsets.index((corner * search_range, corner * search_range))
        rows, cols = block_grid_shape(250, 333, 8)
        mv_index = np.full(rows * cols, winner, dtype=np.uint8)
        got = gather_prediction(reference, offsets, mv_index, 8)
        np.testing.assert_array_equal(
            got, gather_prediction_stacked(reference, offsets, mv_index, 8)
        )
        if corner == 1:
            assert got[-1, -1, -1] == reference[-1, -1]      # clamped, not wrapped
        else:
            assert got[0, 0, 0] == reference[0, 0]


class TestFrameSerialization:
    def test_roundtrip(self):
        frame = EncodedFrame(
            FrameType.INTER, PixelFormat.GRAY16, qp=17, sequence=42,
            height=60, width=80, payload=b"\x01\x02\x03",
        )
        parsed = EncodedFrame.from_bytes(frame.to_bytes())
        assert parsed == frame

    def test_size_accounts_for_header(self):
        frame = EncodedFrame(
            FrameType.INTRA, PixelFormat.RGB8, 10, 0, 4, 4, b"xy"
        )
        assert frame.size_bytes == len(frame.to_bytes())
        assert frame.size_bits == frame.size_bytes * 8

    def test_bad_magic_rejected(self):
        frame = EncodedFrame(FrameType.INTRA, PixelFormat.RGB8, 10, 0, 4, 4, b"")
        data = b"XXXX" + frame.to_bytes()[4:]
        with pytest.raises(ValueError):
            EncodedFrame.from_bytes(data)

    @pytest.mark.parametrize("field,name", [(4, "frame type"), (5, "pixel format")])
    def test_unknown_code_rejected(self, field, name):
        data = bytearray(
            EncodedFrame(FrameType.INTRA, PixelFormat.RGB8, 10, 0, 4, 4, b"").to_bytes()
        )
        data[field] = 7
        with pytest.raises(ValueError, match=f"unknown {name} code 7"):
            EncodedFrame.from_bytes(bytes(data))

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            EncodedFrame.from_bytes(b"\x00\x01")

    def test_trailing_bytes_rejected(self):
        data = EncodedFrame(FrameType.INTRA, PixelFormat.RGB8, 10, 0, 4, 4, b"xy").to_bytes()
        with pytest.raises(ValueError, match="trailing bytes"):
            EncodedFrame.from_bytes(data + b"\x00")
        with pytest.raises(ValueError, match="truncated frame payload"):
            EncodedFrame.from_bytes(data[:-1])

    @pytest.mark.parametrize(
        "fields",
        [{"height": 9, "width": 70_000}, {"height": 65_536, "width": 4}, {"qp": 256}],
        ids=["width", "height", "qp"],
    )
    def test_out_of_range_header_field_is_a_value_error(self, fields):
        frame = dataclasses.replace(
            EncodedFrame(FrameType.INTRA, PixelFormat.RGB8, 10, 0, 4, 4, b"xy"), **fields
        )
        with pytest.raises(ValueError, match="out of range for the LVF1 header"):
            frame.to_bytes()


class TestVideoCodecColor:
    def test_intra_roundtrip_quality(self):
        frame = moving_gradient_video(1)[0]
        encoder = VideoEncoder(VideoCodecConfig(gop_size=1))
        encoded, recon = encoder.encode(frame, qp=10)
        assert encoded.frame_type is FrameType.INTRA
        rmse = np.sqrt(((recon.astype(float) - frame.astype(float)) ** 2).mean())
        assert rmse < 6.0

    def test_decoder_matches_encoder_reconstruction(self):
        frames = moving_gradient_video(4)
        config = VideoCodecConfig(gop_size=4)
        encoder, decoder = VideoEncoder(config), VideoDecoder(config)
        for frame in frames:
            encoded, recon = encoder.encode(frame, qp=20)
            decoded = decoder.to_image(decoder.decode(encoded))
            np.testing.assert_array_equal(decoded, recon)

    def test_gop_structure(self):
        frames = moving_gradient_video(6)
        encoder = VideoEncoder(VideoCodecConfig(gop_size=3))
        types = [encoder.encode(f, qp=25)[0].frame_type for f in frames]
        assert types == [
            FrameType.INTRA, FrameType.INTER, FrameType.INTER,
            FrameType.INTRA, FrameType.INTER, FrameType.INTER,
        ]

    def test_inter_frames_smaller_than_intra(self):
        # A fixed random texture translating by exactly 1 px per frame
        # (the motion search radius): incompressible spatially,
        # perfectly predictable temporally.
        rng = np.random.default_rng(9)
        texture = rng.integers(0, 256, size=(48, 80, 3)).astype(np.uint8)
        frames = [texture[:, i : i + 64] for i in range(4)]
        encoder = VideoEncoder(VideoCodecConfig(gop_size=10))
        sizes = [encoder.encode(f, qp=25)[0].size_bytes for f in frames]
        assert all(size < sizes[0] * 0.8 for size in sizes[1:])

    def test_higher_qp_smaller_and_worse(self):
        frame = moving_gradient_video(1)[0]
        results = {}
        for qp in (8, 40):
            encoder = VideoEncoder(VideoCodecConfig(gop_size=1))
            encoded, recon = encoder.encode(frame, qp=qp)
            rmse = np.sqrt(((recon.astype(float) - frame.astype(float)) ** 2).mean())
            results[qp] = (encoded.size_bytes, rmse)
        assert results[40][0] < results[8][0]
        assert results[40][1] > results[8][1]

    def test_force_intra(self):
        frames = moving_gradient_video(3)
        encoder = VideoEncoder(VideoCodecConfig(gop_size=30))
        encoder.encode(frames[0], qp=25)
        encoded, _ = encoder.encode(frames[1], qp=25, force_intra=True)
        assert encoded.frame_type is FrameType.INTRA

    def test_invalid_qp(self):
        encoder = VideoEncoder()
        with pytest.raises(ValueError):
            encoder.encode(moving_gradient_video(1)[0], qp=99)

    def test_unsupported_format(self):
        encoder = VideoEncoder()
        with pytest.raises(ValueError):
            encoder.encode(np.zeros((8, 8, 4), dtype=np.uint8), qp=20)

    def test_decode_inter_without_reference_fails(self):
        config = VideoCodecConfig(gop_size=2)
        encoder, decoder = VideoEncoder(config), VideoDecoder(config)
        encoder.encode(moving_gradient_video(1)[0], qp=20)
        encoded, _ = encoder.encode(moving_gradient_video(2)[1], qp=20)
        assert encoded.frame_type is FrameType.INTER
        with pytest.raises(ValueError):
            decoder.decode(encoded)


class TestVideoCodec16Bit:
    def test_gray16_roundtrip(self):
        frames = moving_gradient_video(3, channels=1)
        config = VideoCodecConfig.for_depth(gop_size=3)
        encoder, decoder = VideoEncoder(config), VideoDecoder(config)
        for frame in frames:
            encoded, recon = encoder.encode(frame, qp=14)
            assert encoded.pixel_format is PixelFormat.GRAY16
            decoded = decoder.to_image(decoder.decode(encoded))
            np.testing.assert_array_equal(decoded, recon)
            assert decoded.dtype == np.uint16

    def test_gray16_distortion_scales_with_qp(self):
        frame = moving_gradient_video(1, channels=1)[0]
        errors = {}
        for qp in (4, 45):
            encoder = VideoEncoder(VideoCodecConfig.for_depth(gop_size=1))
            _, recon = encoder.encode(frame, qp=qp)
            errors[qp] = np.abs(recon.astype(float) - frame.astype(float)).mean()
        assert errors[45] > errors[4]
        # At QP 4 (step 1) the reconstruction is near-lossless relative to
        # the 16-bit range.
        assert errors[4] < 3.0

    def test_depth_config_uses_flat_weights(self):
        config = VideoCodecConfig.for_depth()
        assert config.weight_strength == 0.0


# Plane sides that are not a multiple of the 8-pixel block, so every
# frame has edge-padded blocks.
RAGGED_SIDES = st.integers(1, 44).filter(lambda side: side % DEFAULT_BLOCK_SIZE)


class TestIntraRoundTripProperty:
    @given(
        height=RAGGED_SIDES, width=RAGGED_SIDES,
        qp=st.sampled_from([0, 12, 22, 37, 51]),
        depth_preset=st.booleans(), seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_gray16_decodes_to_reconstruction_within_quantisation_bound(
        self, height, width, qp, depth_preset, seed
    ):
        """Decoded GRAY16 pixels stay within the dead-zone quantiser's reach.

        Quantising coefficient ``c`` with step ``s = qp_to_step(qp) * w``
        (``w`` the frequency weight, 1 under the depth preset) keeps
        ``level = sign(c) * floor(|c| / s + o)`` with ``o =
        DEAD_ZONE_OFFSET = 1/3``, so ``|c| / s - |level|`` lies in ``(o -
        1, o]`` and ``|c - level * s| <= (1 - o) * s``.  The inverse DCT
        is orthonormal, so a block's pixel error has the L2 norm of its
        coefficient error, at most ``(1 - o) * qp_to_step(qp) * ||w||_F``,
        and no single pixel can exceed that.  Clipping to ``[0, 65535]``
        moves no pixel away from an in-range original, and rounding to
        ``uint16`` adds at most 0.5.
        """
        config = (
            VideoCodecConfig.for_depth(gop_size=1)
            if depth_preset
            else VideoCodecConfig(gop_size=1)
        )
        image = np.random.default_rng(seed).integers(
            0, 65536, size=(height, width), dtype=np.uint16
        )
        encoded, reconstruction = VideoEncoder(config).encode(image, qp=qp)
        decoder = VideoDecoder(config)
        decoded = decoder.to_image(decoder.decode(encoded))
        assert encoded.frame_type is FrameType.INTRA
        np.testing.assert_array_equal(decoded, reconstruction)

        weights = weight_matrix(DEFAULT_BLOCK_SIZE, config.weight_strength)
        bound = (1 - DEAD_ZONE_OFFSET) * qp_to_step(qp) * np.linalg.norm(weights) + 0.5
        error = np.abs(decoded.astype(np.float64) - image.astype(np.float64))
        assert error.max() <= bound + 1e-6

    @given(
        height=RAGGED_SIDES, width=RAGGED_SIDES,
        qp=st.sampled_from([0, 12, 22, 37, 51]), seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_rgb8_decodes_to_reconstruction(self, height, width, qp, seed):
        config = VideoCodecConfig(gop_size=1)
        image = np.random.default_rng(seed).integers(
            0, 256, size=(height, width, 3), dtype=np.uint8
        )
        encoded, reconstruction = VideoEncoder(config).encode(image, qp=qp)
        assert encoded.frame_type is FrameType.INTRA
        decoder = VideoDecoder(config)
        np.testing.assert_array_equal(decoder.to_image(decoder.decode(encoded)), reconstruction)


class TestRateControl:
    def test_converges_to_target(self):
        frames = moving_gradient_video(30)
        encoder = VideoEncoder(VideoCodecConfig(gop_size=30))
        target = 2500
        sizes = [encoder.encode_to_target(f, target)[0].size_bytes for f in frames]
        # After warmup, P-frame sizes should hover near the budget.
        steady = np.array(sizes[5:])
        assert 0.2 * target < steady.mean() < 1.5 * target

    def test_rate_halves_per_six_qp_model(self):
        controller = RateController()
        controller.update(qp_used=30, size_bytes=8000, target_bytes=8000)
        # Target half the size: model should ask for about +6 QP.
        assert controller.propose_qp(4000) == pytest.approx(36, abs=1)

    def test_retry_only_on_large_overshoot(self):
        controller = RateController()
        assert controller.retry_qp(30, size_bytes=1000, target_bytes=900) is None
        retry = controller.retry_qp(30, size_bytes=4000, target_bytes=1000)
        assert retry is not None and retry > 30

    def test_qp_step_clamped(self, monkeypatch):
        monkeypatch.setattr(rate_control, "MAX_STEP", 4)
        controller = RateController()
        controller.update(30, 100_000, 100_000)
        assert abs(controller.propose_qp(10) - 30) <= 4

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            RateController(qp_max=QP_MIN)
        with pytest.raises(ValueError):
            RateController(qp_max=QP_MAX_EXTENDED + 1)

    def test_encode_to_target_invalid_budget(self):
        encoder = VideoEncoder()
        with pytest.raises(ValueError):
            encoder.encode_to_target(moving_gradient_video(1)[0], 0)

    def test_lower_target_lowers_size(self):
        frames = moving_gradient_video(24)
        sizes = {}
        for target in (1200, 6000):
            encoder = VideoEncoder(VideoCodecConfig(gop_size=100))
            sequence = [encoder.encode_to_target(f, target)[0].size_bytes for f in frames]
            sizes[target] = np.mean(sequence[4:])
        assert sizes[1200] < sizes[6000]


class TestReferenceState:
    @pytest.mark.parametrize("depth", [False, True])
    def test_reference_planes_read_only_after_every_encode(self, depth):
        """Every encode -- fixed QP, rate-controlled, retried -- leaves
        read-only reference planes, which is what lets a retry keep the
        previous frame's plane list instead of copying it: a planted
        in-place write raises."""
        if depth:
            config = VideoCodecConfig.for_depth(gop_size=4)
            frames = moving_gradient_video(8, channels=1)
        else:
            config = VideoCodecConfig(gop_size=4)
            frames = moving_gradient_video(8)
        encoder = VideoEncoder(config)
        retries = []
        retry_qp = encoder.rate_controller.retry_qp

        def counted(*args):
            retries.append(retry_qp(*args))
            return retries[-1]

        encoder.rate_controller.retry_qp = counted
        # Big budgets then a starved one: the starved frame overshoots.
        for index, image in enumerate(frames):
            if index % 3 == 2:
                encoder.encode(image, qp=30)
            else:
                encoder.encode_to_target(image, 20_000 if index < 4 else 60)
            for plane in encoder._reference:
                assert not plane.flags.writeable
                with pytest.raises(ValueError):
                    plane[0, 0] = 0.0
        assert any(qp is not None for qp in retries)

    def test_reconstruction_built_only_when_asked(self):
        """The generator path returns the frame alone;
        ``last_reconstruction`` builds the image on demand, equal to
        what ``encode_to_target`` returns and to what the decoder
        produces."""
        config = VideoCodecConfig(gop_size=3)
        lazy, eager = VideoEncoder(config), VideoEncoder(config)
        decoder = VideoDecoder(config)
        assert lazy.last_reconstruction is None
        for image in moving_gradient_video(5):
            frame = drive_serial(lazy.encode_to_target_steps(image, 900))
            expected_frame, expected = eager.encode_to_target(image, 900)
            assert frame.payload == expected_frame.payload
            assert np.array_equal(lazy.last_reconstruction, expected)
            assert np.array_equal(decoder.to_image(decoder.decode(frame)), expected)


class TestChromaSubsampling:
    def test_roundtrip_encoder_decoder_agree(self):
        frames = moving_gradient_video(3)
        config = VideoCodecConfig(gop_size=3, chroma_subsampling=True)
        encoder, decoder = VideoEncoder(config), VideoDecoder(config)
        for frame in frames:
            encoded, recon = encoder.encode(frame, qp=22)
            np.testing.assert_array_equal(decoder.to_image(decoder.decode(encoded)), recon)
            assert recon.shape == frame.shape

    def test_odd_dimensions(self):
        rng = np.random.default_rng(11)
        image = rng.integers(0, 256, (17, 23, 3)).astype(np.uint8)
        config = VideoCodecConfig(gop_size=1, chroma_subsampling=True)
        encoder, decoder = VideoEncoder(config), VideoDecoder(config)
        encoded, recon = encoder.encode(image, qp=15)
        np.testing.assert_array_equal(decoder.to_image(decoder.decode(encoded)), recon)
        assert recon.shape == image.shape

    def test_shrinks_stream_at_matched_qp(self):
        rng = np.random.default_rng(12)
        image = rng.integers(0, 256, (48, 64, 3)).astype(np.uint8)
        sizes = {}
        for subsampling in (False, True):
            config = VideoCodecConfig(gop_size=1, chroma_subsampling=subsampling)
            encoded, _ = VideoEncoder(config).encode(image, qp=20)
            sizes[subsampling] = encoded.size_bytes
        assert sizes[True] < sizes[False]

    def test_gray16_unaffected(self):
        frame = moving_gradient_video(1, channels=1)[0]
        config = VideoCodecConfig.for_depth(gop_size=1, chroma_subsampling=True)
        encoder, decoder = VideoEncoder(config), VideoDecoder(config)
        encoded, recon = encoder.encode(frame, qp=10)
        np.testing.assert_array_equal(decoder.to_image(decoder.decode(encoded)), recon)
