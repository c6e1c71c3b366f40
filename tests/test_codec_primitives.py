"""Tests for codec building blocks: YUV, blocks, DCT, quantization, entropy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.codec.blocks import block_grid_shape, merge_blocks, split_blocks
from repro.codec.dct import forward_dct, inverse_dct
from repro.codec.entropy import decode_levels, encode_levels, zigzag_indices
from repro.codec.quant import dequantize, qp_to_step, quantize, weight_matrix
from repro.codec.yuv import rgb_to_ycbcr, ycbcr_to_rgb


class TestYUV:
    def test_roundtrip_is_near_lossless(self):
        rng = np.random.default_rng(0)
        rgb = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
        back = ycbcr_to_rgb(rgb_to_ycbcr(rgb))
        assert np.abs(back.astype(int) - rgb.astype(int)).max() <= 1

    def test_gray_maps_to_luma_only(self):
        gray = np.full((4, 4, 3), 100, dtype=np.uint8)
        ycbcr = rgb_to_ycbcr(gray)
        np.testing.assert_allclose(ycbcr[..., 0], 100.0, atol=1e-9)
        np.testing.assert_allclose(ycbcr[..., 1:], 128.0, atol=1e-9)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            rgb_to_ycbcr(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            ycbcr_to_rgb(np.zeros((4, 4, 2)))

    @given(arrays(np.uint8, (6, 7, 3), elements=st.integers(0, 255)))
    @settings(max_examples=30)
    def test_roundtrip_property(self, rgb):
        back = ycbcr_to_rgb(rgb_to_ycbcr(rgb))
        assert np.abs(back.astype(int) - rgb.astype(int)).max() <= 1


class TestBlocks:
    def test_grid_shape(self):
        assert block_grid_shape(60, 80, 8) == (8, 10)
        assert block_grid_shape(64, 80, 8) == (8, 10)
        assert block_grid_shape(65, 81, 8) == (9, 11)

    def test_pad_exact_multiple_is_identity(self):
        plane = np.arange(128, dtype=float).reshape(8, 16)
        blocks = split_blocks(plane, 8)
        assert np.shares_memory(blocks, plane)
        np.testing.assert_array_equal(blocks[1], plane[:, 8:])

    @pytest.mark.parametrize(
        "shape", [(1, 1), (18, 24), (17, 401), (26, 72), (3, 18, 24), (2, 5, 1, 1)],
        ids=lambda shape: "x".join(map(str, shape)),
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.uint8])
    def test_edge_padding_matches_np_pad(self, shape, dtype):
        """Not block multiples: the slice-assigned pad is np.pad's, byte for byte."""
        planes = np.random.default_rng(7).integers(0, 255, shape).astype(dtype)
        *lead, height, width = shape
        expected = np.pad(
            planes,
            [(0, 0)] * len(lead) + [(0, -height % 8), (0, -width % 8)],
            mode="edge",
        )
        blocks = split_blocks(planes, 8)
        assert blocks.dtype == dtype
        assert blocks.shape == (*lead, expected.shape[-2] * expected.shape[-1] // 64, 8, 8)
        # ``expected`` is a block multiple: splitting it only reshapes.
        for index in np.ndindex(*lead):
            assert np.array_equal(blocks[index], split_blocks(expected[index], 8))

    def test_split_merge_roundtrip(self):
        rng = np.random.default_rng(1)
        plane = rng.normal(size=(60, 77))
        blocks = split_blocks(plane, 8)
        assert blocks.shape == (8 * 10, 8, 8)
        back = merge_blocks(blocks, 60, 77, 8)
        np.testing.assert_array_equal(back, plane)

    def test_split_block_content(self):
        plane = np.arange(16, dtype=float).reshape(4, 4)
        blocks = split_blocks(plane, 2)
        np.testing.assert_array_equal(blocks[0], [[0, 1], [4, 5]])
        np.testing.assert_array_equal(blocks[1], [[2, 3], [6, 7]])

    def test_merge_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            merge_blocks(np.zeros((3, 8, 8)), 16, 16, 8)

    @given(
        h=st.integers(2, 40), w=st.integers(2, 40), b=st.sampled_from([2, 4, 8])
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, h, w, b):
        rng = np.random.default_rng(h * 100 + w)
        plane = rng.normal(size=(h, w))
        back = merge_blocks(split_blocks(plane, b), h, w, b)
        np.testing.assert_array_equal(back, plane)


class TestDCT:
    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        blocks = rng.normal(size=(10, 8, 8))
        np.testing.assert_allclose(inverse_dct(forward_dct(blocks)), blocks, atol=1e-10)

    def test_constant_block_is_dc_only(self):
        blocks = np.full((1, 8, 8), 5.0)
        coefficients = forward_dct(blocks)
        assert coefficients[0, 0, 0] == pytest.approx(40.0)  # 5 * sqrt(64)
        assert np.abs(coefficients[0].ravel()[1:]).max() < 1e-10

    def test_energy_preserved(self):
        rng = np.random.default_rng(3)
        blocks = rng.normal(size=(5, 8, 8))
        coefficients = forward_dct(blocks)
        np.testing.assert_allclose(
            (coefficients**2).sum(), (blocks**2).sum(), rtol=1e-10
        )

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            forward_dct(np.zeros((8, 8)))


class TestQuantization:
    def test_step_doubles_every_six_qp(self):
        assert qp_to_step(10) == pytest.approx(2 * qp_to_step(4))
        assert qp_to_step(4) == pytest.approx(1.0)

    def test_invalid_qp(self):
        with pytest.raises(ValueError):
            qp_to_step(-1)
        with pytest.raises(ValueError):
            qp_to_step(100)  # beyond even the 16-bit extension

    def test_extended_qp_range_for_16bit(self):
        # The high-bit-depth extension admits QP up to 99 (quant.py).
        assert qp_to_step(99) > qp_to_step(51)

    def test_dead_zone_zeroes_small_values(self):
        coefficients = np.full((1, 8, 8), 0.4)
        levels = quantize(coefficients, qp=4)  # step 1, dead zone 1/3
        assert np.all(levels == 0)

    def test_quantization_error_bounded_by_step(self):
        rng = np.random.default_rng(4)
        coefficients = rng.normal(scale=50, size=(10, 8, 8))
        qp = 22
        step = qp_to_step(qp)
        recon = dequantize(quantize(coefficients, qp), qp)
        assert np.abs(recon - coefficients).max() <= step

    def test_higher_qp_more_zeros(self):
        rng = np.random.default_rng(5)
        coefficients = rng.normal(scale=20, size=(10, 8, 8))
        zeros_low = (quantize(coefficients, 10) == 0).mean()
        zeros_high = (quantize(coefficients, 40) == 0).mean()
        assert zeros_high > zeros_low

    def test_weight_matrix_flat_at_zero_strength(self):
        np.testing.assert_array_equal(weight_matrix(8, 0.0), np.ones((8, 8)))

    def test_weight_matrix_grows_with_frequency(self):
        weights = weight_matrix(8, 1.0)
        assert weights[0, 0] == pytest.approx(1.0)
        assert weights[7, 7] == pytest.approx(3.0)
        assert (np.diff(weights[0]) > 0).all()

    def test_weighted_quantization_roundtrip_consistency(self):
        rng = np.random.default_rng(6)
        coefficients = rng.normal(scale=100, size=(4, 8, 8))
        weights = weight_matrix(8, 1.0)
        recon = dequantize(quantize(coefficients, 20, weights), 20, weights)
        assert np.abs(recon - coefficients).max() <= qp_to_step(20) * weights.max()


class TestEntropy:
    def test_zigzag_is_permutation(self):
        for size in (2, 4, 8, 16):
            indices = zigzag_indices(size)
            assert sorted(indices) == list(range(size * size))

    def test_zigzag_visits_low_frequencies_first(self):
        indices = zigzag_indices(8)
        assert indices[0] == 0           # DC first
        assert set(indices[:3]) == {0, 1, 8}  # then the first diagonal

    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        levels = rng.integers(-300, 300, size=(20, 8, 8)).astype(np.int32)
        np.testing.assert_array_equal(decode_levels(encode_levels(levels)), levels)

    def test_roundtrip_large_values(self):
        levels = np.zeros((2, 8, 8), dtype=np.int32)
        levels[0, 0, 0] = 1_000_000
        levels[1, 3, 3] = -70000
        np.testing.assert_array_equal(decode_levels(encode_levels(levels)), levels)

    def test_sparse_levels_compress_smaller(self):
        rng = np.random.default_rng(8)
        dense = rng.integers(-50, 50, size=(50, 8, 8)).astype(np.int32)
        sparse = dense.copy()
        sparse[np.abs(sparse) < 40] = 0
        assert len(encode_levels(sparse)) < len(encode_levels(dense))

    def test_truncated_payload_rejected(self):
        with pytest.raises(ValueError):
            decode_levels(b"abc")

    @given(
        arrays(np.int32, (5, 4, 4), elements=st.integers(-1000, 1000))
    )
    @settings(max_examples=30)
    def test_roundtrip_property(self, levels):
        np.testing.assert_array_equal(decode_levels(encode_levels(levels)), levels)
