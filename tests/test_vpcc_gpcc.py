"""Tests for the V-PCC-like and G-PCC-like comparison codecs."""

import numpy as np
import pytest

from repro.compression.draco import DracoCodec, DracoConfig
from repro.compression.gpcc import GPCCCodec
from repro.compression.vpcc import VPCCCodec
from repro.geometry.pointcloud import PointCloud


def surface_cloud(n=4000, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    directions = rng.normal(size=(half, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    sphere = directions * 0.8 + np.array([0.0, 1.2, 0.0])
    plane = np.stack(
        [rng.uniform(-2, 2, n - half), np.zeros(n - half), rng.uniform(-2, 2, n - half)],
        axis=1,
    )
    colors = rng.integers(0, 256, size=(n, 3), dtype=np.uint8)
    return PointCloud(np.concatenate([sphere, plane]), colors)


class TestVPCC:
    def test_encode_time_prohibitive(self):
        """~8 minutes for a full-scene frame (section 1)."""
        codec = VPCCCodec()
        assert codec.estimate_encode_time_s(770_000) == pytest.approx(480.0, rel=0.05)
        assert codec.estimate_encode_time_s(770_000) > 60.0


class TestGPCC:
    def test_roundtrip_shares_octree_semantics(self):
        cloud = surface_cloud(2000)
        codec = GPCCCodec(DracoConfig(10, 7))
        decoded = GPCCCodec.decode(codec.encode(cloud))
        assert 0 < len(decoded) <= len(cloud)

    def test_slower_than_draco_per_paper(self):
        """G-PCC ~10 s vs Draco ~0.3 s on the full-scene frame."""
        points = 770_000
        gpcc_time = GPCCCodec(DracoConfig(11, 7)).estimate_encode_time_s(points)
        draco_time = DracoCodec(DracoConfig(11, 7)).estimate_encode_time_s(points)
        assert gpcc_time > 10 * draco_time
        assert 5.0 < gpcc_time < 20.0

    def test_not_rate_adaptive_interface(self):
        """Like Draco, G-PCC exposes quality knobs, not target bitrates."""
        codec = GPCCCodec()
        assert not hasattr(codec, "encode_to_target")
