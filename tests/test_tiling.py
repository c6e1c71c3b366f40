"""Tests for tiling and frame sequence markers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.video import VideoCodecConfig, VideoDecoder, VideoEncoder
from repro.tiling.marker import MARKER_BITS, MARKER_HEIGHT, decode_marker, encode_marker
from repro.tiling.tiler import TileLayout, Tiler


class TestMarker:
    def test_roundtrip_uint8(self):
        strip = encode_marker(123456, width=320, high_value=255, dtype=np.uint8)
        assert strip.shape == (MARKER_HEIGHT, 320)
        assert decode_marker(strip, 255) == 123456

    def test_roundtrip_uint16(self):
        strip = encode_marker(99, width=200, high_value=65535, dtype=np.uint16)
        assert decode_marker(strip, 65535) == 99

    @given(st.integers(0, 2**MARKER_BITS - 1))
    @settings(max_examples=50)
    def test_roundtrip_property(self, sequence):
        strip = encode_marker(sequence, width=256, high_value=255, dtype=np.uint8)
        assert decode_marker(strip, 255) == sequence

    def test_robust_to_codec_noise(self):
        rng = np.random.default_rng(0)
        strip = encode_marker(4242, width=320, high_value=255, dtype=np.uint8)
        noisy = np.clip(
            strip.astype(int) + rng.integers(-60, 61, size=strip.shape), 0, 255
        ).astype(np.uint8)
        assert decode_marker(noisy, 255) == 4242

    def test_sequence_out_of_range(self):
        with pytest.raises(ValueError):
            encode_marker(2**MARKER_BITS, 256, 255, np.uint8)

    def test_width_too_small(self):
        with pytest.raises(ValueError):
            encode_marker(1, 32, 255, np.uint8)

    def test_decode_bad_shape(self):
        with pytest.raises(ValueError):
            decode_marker(np.zeros((4, 100)), 255)


class TestTileLayout:
    def test_ten_cameras_is_2x5(self):
        layout = TileLayout.for_cameras(10, 60, 80)
        assert (layout.rows, layout.cols) == (2, 5)
        assert layout.frame_width == 400
        assert layout.frame_height == 2 * 60 + MARKER_HEIGHT

    def test_prime_count_falls_back_to_strip(self):
        layout = TileLayout.for_cameras(7, 10, 10)
        assert layout.rows * layout.cols == 7

    def test_tile_slices_cover_disjoint_regions(self):
        layout = TileLayout.for_cameras(6, 8, 8)
        covered = np.zeros((layout.rows * 8, layout.cols * 8), dtype=int)
        for index in range(6):
            rows, cols = layout.tile_slice(index)
            covered[rows, cols] += 1
        assert (covered == 1).all()

    def test_tile_index_out_of_range(self):
        layout = TileLayout.for_cameras(4, 8, 8)
        with pytest.raises(IndexError):
            layout.tile_slice(4)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            TileLayout.for_cameras(0, 8, 8)
        with pytest.raises(ValueError):
            TileLayout.for_cameras(4, 0, 8)


class TestTiler:
    def make_images(self, n, h, w, color, seed=0):
        rng = np.random.default_rng(seed)
        if color:
            return [
                rng.integers(0, 256, size=(h, w, 3), dtype=np.uint16).astype(np.uint8)
                for _ in range(n)
            ]
        return [rng.integers(0, 6000, size=(h, w), dtype=np.uint16) for _ in range(n)]

    def test_color_roundtrip(self):
        layout = TileLayout.for_cameras(10, 24, 32)
        tiler = Tiler(layout, is_color=True)
        images = self.make_images(10, 24, 32, color=True)
        frame = tiler.compose(images, sequence=77)
        back, sequence = tiler.decompose(frame)
        assert sequence == 77
        for original, recovered in zip(images, back):
            np.testing.assert_array_equal(recovered, original)

    def test_depth_roundtrip(self):
        layout = TileLayout.for_cameras(4, 16, 32)
        tiler = Tiler(layout, is_color=False)
        images = self.make_images(4, 16, 32, color=False)
        frame = tiler.compose(images, sequence=3)
        back, sequence = tiler.decompose(frame)
        assert sequence == 3
        for original, recovered in zip(images, back):
            np.testing.assert_array_equal(recovered, original)

    def test_wrong_image_count(self):
        tiler = Tiler(TileLayout.for_cameras(4, 8, 8), is_color=False)
        with pytest.raises(ValueError):
            tiler.compose(self.make_images(3, 8, 8, color=False), 0)

    def test_wrong_tile_shape(self):
        tiler = Tiler(TileLayout.for_cameras(2, 8, 8), is_color=False)
        images = self.make_images(2, 9, 8, color=False)
        with pytest.raises(ValueError):
            tiler.compose(images, 0)

    def test_decompose_wrong_frame_shape(self):
        tiler = Tiler(TileLayout.for_cameras(2, 8, 8), is_color=True)
        with pytest.raises(ValueError):
            tiler.decompose(np.zeros((10, 10, 3), dtype=np.uint8))

    def test_marker_survives_video_codec(self):
        """End-to-end: the sequence number must survive lossy encoding.

        This is the synchronization mechanism of appendix A.1.
        """
        layout = TileLayout.for_cameras(4, 24, 64)
        tiler = Tiler(layout, is_color=True)
        config = VideoCodecConfig(gop_size=4)
        encoder, decoder = VideoEncoder(config), VideoDecoder(config)
        rng = np.random.default_rng(5)
        for sequence in range(4):
            images = [
                rng.integers(0, 256, size=(24, 64, 3)).astype(np.uint8) for _ in range(4)
            ]
            frame = tiler.compose(images, sequence=sequence + 100)
            encoded, _ = encoder.encode(frame, qp=38)
            decoded = decoder.to_image(decoder.decode(encoded))
            _, recovered = tiler.decompose(decoded)
            assert recovered == sequence + 100
