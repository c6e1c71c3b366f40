"""Tests for the Draco-like codec, Draco-Oracle, meshes, and MeshReduce."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.capture.rig import default_rig
from repro.capture.scene import make_scene
from repro.compression.draco import DracoCodec, DracoConfig
from repro.compression import mesh as mesh_module
from repro.compression.mesh import decimate_mesh, mesh_from_views, sample_mesh_points
from repro.compression.meshreduce import (
    MeshReducePipeline,
    MeshReduceProfile,
    encode_mesh,
)
from repro.compression.oracle import DracoOracle, OracleProfile
from repro.geometry.pointcloud import PointCloud
from repro.transport.tcp import ReliableByteStream
from repro.transport.traces import constant_trace


def structured_cloud(n=5000, seed=0):
    """Points on a couple of surfaces (compressible, scene-like)."""
    rng = np.random.default_rng(seed)
    n_half = n // 2
    # A plane and a sphere.
    plane = np.stack(
        [rng.uniform(-2, 2, n_half), np.zeros(n_half), rng.uniform(-2, 2, n_half)], axis=1
    )
    directions = rng.normal(size=(n - n_half, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    sphere = directions * 0.5 + np.array([0, 1.0, 0])
    points = np.concatenate([plane, sphere])
    colors = rng.integers(0, 256, size=(n, 3), dtype=np.uint8)
    return PointCloud(points, colors)


class TestDracoConfig:
    def test_valid_ranges(self):
        DracoConfig(1, 0)
        DracoConfig(31, 9)
        with pytest.raises(ValueError):
            DracoConfig(0, 5)
        with pytest.raises(ValueError):
            DracoConfig(32, 5)
        with pytest.raises(ValueError):
            DracoConfig(10, 10)

    def test_effective_depth_clamped(self):
        assert DracoConfig(31, 5).effective_depth == 16
        assert DracoConfig(8, 5).effective_depth == 8


class TestDracoCodec:
    def test_geometry_error_bounded_by_quantization(self):
        cloud = structured_cloud(3000)
        for qbits in (6, 10):
            codec = DracoCodec(DracoConfig(qbits, 7))
            decoded = DracoCodec.decode(codec.encode(cloud))
            extent = (cloud.bounds()[1] - cloud.bounds()[0]).max()
            cell = extent / (1 << qbits)
            distances, _ = cKDTree(decoded.positions).query(cloud.positions)
            assert distances.max() <= cell * np.sqrt(3)

    def test_more_bits_smaller_error_bigger_size(self):
        cloud = structured_cloud(3000)
        coarse = DracoCodec(DracoConfig(5, 7)).encode(cloud)
        fine = DracoCodec(DracoConfig(12, 7)).encode(cloud)
        assert fine.size_bytes > coarse.size_bytes
        d_coarse, _ = cKDTree(DracoCodec.decode(coarse).positions).query(cloud.positions)
        d_fine, _ = cKDTree(DracoCodec.decode(fine).positions).query(cloud.positions)
        assert d_fine.mean() < d_coarse.mean()

    def test_colors_roundtrip_per_voxel(self):
        # One point per voxel: colors must survive exactly.
        positions = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 1]])
        colors = np.array([[10, 20, 30], [200, 100, 0], [0, 0, 255], [5, 5, 5]],
                          dtype=np.uint8)
        cloud = PointCloud(positions, colors)
        decoded = DracoCodec.decode(DracoCodec(DracoConfig(8, 7)).encode(cloud))
        assert len(decoded) == 4
        # Match decoded points to originals by nearest neighbor.
        _, idx = cKDTree(decoded.positions).query(positions)
        np.testing.assert_array_equal(decoded.colors[idx], colors)

    def test_empty_cloud(self):
        codec = DracoCodec()
        encoded = codec.encode(PointCloud())
        assert DracoCodec.decode(encoded).is_empty

    def test_encode_time_model_anchored_to_paper(self):
        """1 MB cloud (~70k points) ~ 25 ms; 10 MB ~ >=10x (section 1)."""
        codec = DracoCodec(DracoConfig(11, 7))
        small = codec.estimate_encode_time_s(70_000)
        large = codec.estimate_encode_time_s(700_000)
        assert 0.01 < small < 0.06
        assert large == pytest.approx(small * 10)

    def test_encode_time_grows_with_level(self):
        fast = DracoCodec(DracoConfig(11, 0)).estimate_encode_time_s(70_000)
        slow = DracoCodec(DracoConfig(11, 9)).estimate_encode_time_s(70_000)
        assert slow > fast

    def test_bad_payload_rejected(self):
        with pytest.raises(ValueError):
            DracoCodec.decode(b"nope")

    @given(qbits=st.integers(3, 12), level=st.integers(0, 9))
    @settings(max_examples=10, deadline=None)
    def test_roundtrip_property(self, qbits, level):
        cloud = structured_cloud(500, seed=qbits)
        decoded = DracoCodec.decode(DracoCodec(DracoConfig(qbits, level)).encode(cloud))
        assert 0 < len(decoded) <= len(cloud)


class TestOracle:
    @pytest.fixture(scope="class")
    def profile(self):
        return OracleProfile.build(
            [structured_cloud(2000, seed=s) for s in range(2)],
            quantization_grid=(4, 8, 12),
            level_grid=(1, 9),
        )

    def test_profile_orders_by_quality(self, profile):
        qualities = [(e.quantization_bits, e.compression_level) for e in profile.entries]
        assert qualities == sorted(qualities)

    def test_select_prefers_quality_within_budget(self, profile):
        oracle = DracoOracle(profile, fps=15)
        generous = oracle.select(num_points=2000, bandwidth_bps=1e9)
        assert generous is not None
        assert generous.config.quantization_bits == 12

    def test_select_downgrades_under_tight_budget(self, profile):
        oracle = DracoOracle(profile, fps=15)
        generous = oracle.select(2000, 1e9)
        tight = oracle.select(2000, 2e6)
        if tight is not None:
            assert tight.config.quantization_bits <= generous.config.quantization_bits

    def test_stall_when_nothing_fits(self, profile):
        oracle = DracoOracle(profile, fps=15)
        assert oracle.select(50_000, bandwidth_bps=1e3) is None

    def test_stall_rate_accounting(self, profile):
        # A stall is a returned None; the replay counts them per frame.
        oracle = DracoOracle(profile, fps=15)
        cloud = structured_cloud(2000)
        encoded = [oracle.encode_frame(cloud, bandwidth) for bandwidth in (1e9, 1e3)]
        assert [frame is None for frame in encoded] == [False, True]
        assert oracle.encode_frame(PointCloud(), 1e9) is None

    def test_compute_deadline_enforced(self, profile):
        """At 30 fps the deadline halves and stalls grow (section 4.1)."""
        oracle30 = DracoOracle(profile, fps=30)
        oracle15 = DracoOracle(profile, fps=15)
        # Pick a point count whose best-entry encode time sits between
        # the two deadlines.
        big = int(0.05 / max(e.seconds_per_point for e in profile.entries))
        choice15 = oracle15.select(big, 1e12)
        choice30 = oracle30.select(big, 1e12)
        if choice15 is not None and choice30 is not None:
            assert choice30.estimated_time_s <= 1 / 30 + 1e-9

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            OracleProfile([])
        with pytest.raises(ValueError):
            OracleProfile.build([PointCloud()])


@pytest.fixture(scope="module")
def capture_setup():
    rig = default_rig(num_cameras=4, width=48, height=36)
    scene = make_scene("t", num_people=1, num_props=1, sample_budget=12000, seed=1)
    frame = rig.capture(scene, 0)
    return rig, frame


class TestMesh:
    def test_mesh_from_views_has_faces(self, capture_setup):
        rig, frame = capture_setup
        mesh = mesh_from_views(frame, rig.cameras)
        assert mesh.num_vertices == frame.total_points()
        assert mesh.num_faces > 0

    def test_faces_do_not_span_discontinuities(self, capture_setup, monkeypatch):
        rig, frame = capture_setup
        monkeypatch.setattr(mesh_module, "MAX_EDGE_DEPTH_GAP_M", 0.05)
        mesh = mesh_from_views(frame, rig.cameras)
        edges = mesh.vertices[mesh.faces]
        spans = np.linalg.norm(edges[:, 0] - edges[:, 1], axis=1)
        # Adjacent-pixel triangles at our resolution stay small.
        assert np.percentile(spans, 99) < 0.6

    def test_decimation_reduces_complexity(self, capture_setup):
        rig, frame = capture_setup
        mesh = mesh_from_views(frame, rig.cameras)
        small = decimate_mesh(mesh, 0.1)
        assert small.num_vertices < mesh.num_vertices
        assert small.num_faces < mesh.num_faces

    def test_decimation_invalid_voxel(self, capture_setup):
        rig, frame = capture_setup
        mesh = mesh_from_views(frame, rig.cameras)
        with pytest.raises(ValueError):
            decimate_mesh(mesh, 0.0)

    def test_sampled_points_lie_near_mesh(self, capture_setup):
        rig, frame = capture_setup
        mesh = mesh_from_views(frame, rig.cameras)
        sampled = sample_mesh_points(mesh, 2000, seed=0)
        assert len(sampled) == 2000
        distances, _ = cKDTree(mesh.vertices).query(sampled.positions)
        # Samples are inside triangles whose vertices are mesh vertices.
        assert distances.max() < 0.6

    def test_sample_invalid(self, capture_setup):
        rig, frame = capture_setup
        mesh = mesh_from_views(frame, rig.cameras)
        with pytest.raises(ValueError):
            sample_mesh_points(mesh, 0)


class TestMeshReduce:
    def test_encode_mesh_size_positive(self, capture_setup):
        rig, frame = capture_setup
        mesh = mesh_from_views(frame, rig.cameras)
        size, time_s = encode_mesh(mesh)
        assert size > 0
        assert time_s > 0

    def test_profile_sizes_decrease_with_voxel(self, capture_setup):
        rig, frame = capture_setup
        profile = MeshReduceProfile.build([frame], rig.cameras, voxel_grid=(0.02, 0.1, 0.3))
        assert profile.bytes_per_frame[0] > profile.bytes_per_frame[-1]

    def test_profile_selects_conservatively(self, capture_setup):
        rig, frame = capture_setup
        profile = MeshReduceProfile.build([frame], rig.cameras, voxel_grid=(0.02, 0.1, 0.3))
        fine = profile.select_voxel(1e9, fps=15, conservativeness=0.35)
        coarse = profile.select_voxel(1e5, fps=15, conservativeness=0.35)
        assert fine <= coarse

    def test_pipeline_skips_while_busy(self, capture_setup):
        rig, frame = capture_setup
        stream = ReliableByteStream(constant_trace(50.0))
        pipeline = MeshReducePipeline(rig.cameras, stream, voxel_size_m=0.05)
        results = []
        for sequence in range(10):
            capture = frame  # static content is fine for scheduling tests
            results.append(pipeline.offer_frame(capture, now=sequence / 30.0))
        sent = [r for r in results if r.sent]
        skipped = [r for r in results if not r.sent]
        assert sent and skipped  # floating frame rate, not 30 fps

    def test_achieved_fps(self, capture_setup):
        rig, frame = capture_setup
        stream = ReliableByteStream(constant_trace(100.0))
        pipeline = MeshReducePipeline(rig.cameras, stream, voxel_size_m=0.08)
        # One second of 30 fps offers: the achieved rate is the count of
        # results with ``sent`` set.
        results = [pipeline.offer_frame(frame, now=sequence / 30.0) for sequence in range(30)]
        fps = sum(result.sent for result in results)
        assert 0 < fps <= 30

    def test_invalid_construction(self, capture_setup):
        rig, _ = capture_setup
        stream = ReliableByteStream(constant_trace(10.0))
        with pytest.raises(ValueError):
            MeshReducePipeline(rig.cameras, stream, voxel_size_m=0.0)


class TestDracoProperties:
    @given(qbits=st.integers(4, 12))
    @settings(max_examples=8, deadline=None)
    def test_error_bound_scales_with_quantization(self, qbits):
        """Octree quantization error never exceeds the cell diagonal."""
        cloud = structured_cloud(800, seed=qbits + 100)
        decoded = DracoCodec.decode(DracoCodec(DracoConfig(qbits, 5)).encode(cloud))
        extent = float((cloud.bounds()[1] - cloud.bounds()[0]).max())
        cell = extent / (1 << qbits)
        distances, _ = cKDTree(decoded.positions).query(cloud.positions)
        assert distances.max() <= cell * np.sqrt(3) + 1e-9

    @given(level=st.integers(0, 9))
    @settings(max_examples=6, deadline=None)
    def test_compression_level_only_affects_size_not_content(self, level):
        """Draco's -cl knob trades effort for ratio, never fidelity."""
        cloud = structured_cloud(600, seed=3)
        reference = DracoCodec.decode(DracoCodec(DracoConfig(9, 0)).encode(cloud))
        variant = DracoCodec.decode(DracoCodec(DracoConfig(9, level)).encode(cloud))
        np.testing.assert_allclose(variant.positions, reference.positions)
        np.testing.assert_array_equal(variant.colors, reference.colors)

    def test_single_point_cloud(self):
        cloud = PointCloud(np.array([[1.0, 2.0, 3.0]]),
                           np.array([[9, 8, 7]], dtype=np.uint8))
        decoded = DracoCodec.decode(DracoCodec(DracoConfig(8, 5)).encode(cloud))
        assert len(decoded) == 1
        np.testing.assert_array_equal(decoded.colors[0], [9, 8, 7])

    def test_colinear_degenerate_extent(self):
        # All points on one axis: bounding box is degenerate in 2 dims.
        positions = np.stack([np.linspace(0, 1, 50), np.zeros(50), np.zeros(50)], axis=1)
        cloud = PointCloud(positions, np.zeros((50, 3), dtype=np.uint8))
        decoded = DracoCodec.decode(DracoCodec(DracoConfig(10, 5)).encode(cloud))
        assert 0 < len(decoded) <= 50
