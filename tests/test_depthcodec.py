"""Tests for depth scaling, RGB packing, and the depth stream codecs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.depthcodec.packing import (
    pack_bitsplit_rgb,
    pack_triangle_rgb,
    unpack_bitsplit_rgb,
    unpack_triangle_rgb,
)
from repro.depthcodec.scaling import scale_depth, scale_factor, unscale_depth
from repro.depthcodec.streams import (
    RGBPackedDepthStream,
    ScaledY16DepthStream,
    UnscaledY16DepthStream,
    make_depth_stream,
)


def synthetic_depth(height=48, width=64, seed=0):
    """A smooth surface with a step discontinuity, like a person vs wall."""
    rng = np.random.default_rng(seed)
    xs = np.linspace(0, 1, width)
    depth = 2500 + 800 * np.sin(2 * np.pi * xs)[None, :] * np.ones((height, 1))
    depth[:, width // 3 : width // 2] = 1200  # foreground object
    depth += rng.normal(0, 3, size=depth.shape)  # sensor noise
    depth = np.clip(depth, 0, 5999)
    depth[:4, :4] = 0  # invalid region
    return depth.astype(np.uint16)


class TestScaling:
    def test_scale_factor(self):
        assert scale_factor() == pytest.approx(65535 / 6000)

    def test_zero_stays_zero(self):
        depth = np.zeros((4, 4), dtype=np.uint16)
        assert scale_depth(depth).max() == 0
        assert unscale_depth(scale_depth(depth)).max() == 0

    def test_max_depth_maps_to_uint16_max(self):
        depth = np.full((2, 2), 6000, dtype=np.uint16)
        assert scale_depth(depth).min() == 65535

    def test_roundtrip_error_below_one_mm(self):
        depth = np.arange(0, 6000, dtype=np.uint16).reshape(100, 60)
        back = unscale_depth(scale_depth(depth))
        assert np.abs(back.astype(int) - depth.astype(int)).max() <= 1

    def test_values_beyond_range_saturate(self):
        depth = np.full((2, 2), 9000, dtype=np.uint16)
        assert scale_depth(depth).max() == 65535

    @given(st.integers(0, 6000))
    @settings(max_examples=50)
    def test_roundtrip_property(self, value):
        depth = np.full((1, 1), value, dtype=np.uint16)
        back = unscale_depth(scale_depth(depth))
        assert abs(int(back[0, 0]) - value) <= 1


class TestBitSplitPacking:
    def test_exhaustive_roundtrip(self):
        depth = np.arange(65536, dtype=np.uint16).reshape(256, 256)
        np.testing.assert_array_equal(unpack_bitsplit_rgb(pack_bitsplit_rgb(depth)), depth)

    def test_low_byte_is_sawtooth(self):
        depth = np.arange(0, 1024, dtype=np.uint16).reshape(1, -1)
        packed = pack_bitsplit_rgb(depth)
        # The G channel wraps every 256 values: 4 sawtooth teeth.
        green = packed[0, :, 1].astype(int)
        wraps = np.count_nonzero(np.diff(green) < 0)
        assert wraps == 3


class TestTrianglePacking:
    def test_exhaustive_roundtrip(self):
        depth = np.arange(65536, dtype=np.uint16).reshape(256, 256)
        back = unpack_triangle_rgb(pack_triangle_rgb(depth))
        # Lossless up to the fine-channel quantization (~8 depth units).
        assert np.abs(back.astype(int) - depth.astype(int)).max() <= 10

    def test_robust_to_small_channel_noise(self):
        depth = synthetic_depth()
        packed = pack_triangle_rgb(depth).astype(np.int16)
        rng = np.random.default_rng(1)
        noisy = np.clip(packed + rng.integers(-2, 3, size=packed.shape), 0, 255)
        back = unpack_triangle_rgb(noisy.astype(np.uint8))
        valid = depth > 0
        error = np.abs(back.astype(int) - depth.astype(int))[valid]
        # Small channel noise must not cause period-jump errors.
        assert np.percentile(error, 99) < 600
        assert np.median(error) < 30


class TestDepthStreams:
    def test_scaled_stream_roundtrip(self):
        stream = ScaledY16DepthStream()
        depth = synthetic_depth()
        frame, sender_recon = stream.encode(depth, qp=10)
        decoded = stream.decode(frame)
        np.testing.assert_array_equal(decoded, sender_recon)
        valid = depth > 0
        error = np.abs(decoded.astype(int) - depth.astype(int))[valid]
        assert error.mean() < 20  # millimeters

    def test_scaled_beats_unscaled_at_same_qp(self):
        """The core claim behind LiVo's depth scaling (Fig. 17 / A.1)."""
        depth = synthetic_depth()
        qp = 30
        errors = {}
        for name, stream in (
            ("scaled", ScaledY16DepthStream()),
            ("unscaled", UnscaledY16DepthStream()),
        ):
            _, recon = stream.encode(depth, qp=qp)
            valid = depth > 0
            errors[name] = np.abs(recon.astype(float) - depth.astype(float))[valid].mean()
        assert errors["scaled"] < errors["unscaled"]

    def test_rgb_bitsplit_worse_than_scaled_y16(self):
        """RGB packing suffers from low-byte discontinuities (section 3.2)."""
        depth = synthetic_depth()
        scaled = ScaledY16DepthStream()
        rgb = RGBPackedDepthStream(packing="bitsplit")
        # Match rate rather than QP: encode both to the same byte budget.
        frame_scaled, recon_scaled = scaled.encode(depth, target_bytes=1600)
        frame_rgb, recon_rgb = rgb.encode(depth, target_bytes=1600)
        valid = depth > 0
        err_scaled = np.abs(recon_scaled.astype(float) - depth.astype(float))[valid].mean()
        err_rgb = np.abs(recon_rgb.astype(float) - depth.astype(float))[valid].mean()
        assert err_scaled < err_rgb

    def test_streams_accept_target_bytes(self):
        stream = ScaledY16DepthStream()
        depth = synthetic_depth()
        for _ in range(5):
            frame, _ = stream.encode(depth, target_bytes=1500)
        assert frame.size_bytes < 4500

    def test_encode_requires_exactly_one_mode(self):
        stream = ScaledY16DepthStream()
        depth = synthetic_depth()
        with pytest.raises(ValueError):
            stream.encode(depth)
        with pytest.raises(ValueError):
            stream.encode(depth, qp=20, target_bytes=100)

    def test_factory(self):
        assert isinstance(make_depth_stream("scaled-y16"), ScaledY16DepthStream)
        assert isinstance(make_depth_stream("unscaled-y16"), UnscaledY16DepthStream)
        assert make_depth_stream("rgb-bitsplit").packing == "bitsplit"
        assert make_depth_stream("rgb-triangle").packing == "triangle"
        with pytest.raises(ValueError):
            make_depth_stream("nope")

    def test_invalid_packing(self):
        with pytest.raises(ValueError):
            RGBPackedDepthStream(packing="hue")

    def test_reset_forces_intra(self):
        stream = ScaledY16DepthStream()
        depth = synthetic_depth()
        stream.encode(depth, qp=20)
        frame, _ = stream.encode(depth, qp=20)
        assert frame.frame_type.value == "P"
        stream.reset()
        frame, _ = stream.encode(depth, qp=20)
        assert frame.frame_type.value == "I"
