"""Parity suite for the kernel-cache layer (repro.perf).

Every cache in the layer promises *byte-identical* output to the
uncached oracle in tests/reference; these tests hold the layer to that
promise:

- incremental capture vs full re-render across a dynamic scene,
- the PointSSIM scalar oracle vs the one-shot metric, to full precision,
- determinism of the stratified subsample mode,
- scratch-arena bitstreams vs the pinned plain-encoder bitstreams,

plus regression tests for the satellite fixes (read-only zigzag cache,
exact integer bit lengths, hole filling).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capture.dataset import load_video
from repro.capture.renderer import ProjectionCache, fill_holes_batch
from repro.capture.rig import default_rig
from repro.capture.scene import SampleBatch, Scene, make_scene
from repro.codec.entropy import _magnitude_codes, decode_levels, encode_levels, zigzag_indices
from repro.codec.video import VideoCodecConfig, VideoDecoder, VideoEncoder
from repro.core.config import SessionConfig
from repro.core.session import LiVoSession
from repro.geometry.camera import CameraExtrinsics, CameraIntrinsics, RGBDCamera
from repro.geometry.pointcloud import PointCloud
from repro.metrics.pointssim import pointssim, precompute_features, stratified_subsample
from repro.perf.capture import FRAME_MEMO_BYTES, CachedFrameSource
from repro.prediction.pose import user_traces_for_video
from repro.transport.traces import trace_1
from tests.reference.pointssim import pointssim_from_features
from tests.reference.render import full_render, render_rgbd
from tests.twins import assert_pinned


def _test_scene(sample_budget: int = 15_000) -> Scene:
    return make_scene(
        "cache-test",
        num_people=2,
        num_props=3,
        motion_amplitude_m=0.2,
        motion_frequency_hz=0.9,
        sample_budget=sample_budget,
        seed=7,
    )


def fill_holes(depth, color, iterations=2):
    """``fill_holes_batch`` on one image: a stack of one."""
    depths, colors = fill_holes_batch(depth[None], color[None], iterations=iterations)
    return depths[0], colors[0]


def _frames_equal(a, b) -> bool:
    return all(
        np.array_equal(va.depth_mm, vb.depth_mm) and np.array_equal(va.color, vb.color)
        for va, vb in zip(a.views, b.views)
    )


def _assert_frames_identical(got, want) -> None:
    """Same pixels, dtypes and stamps, view for view."""
    assert (got.sequence, got.timestamp_s) == (want.sequence, want.timestamp_s)
    assert len(got.views) == len(want.views)
    for view, expected in zip(got.views, want.views):
        assert (view.camera_id, view.sequence, view.timestamp_s) == (
            expected.camera_id, expected.sequence, expected.timestamp_s,
        )
        for array, want_array in ((view.depth_mm, expected.depth_mm), (view.color, expected.color)):
            assert array.dtype == want_array.dtype
            np.testing.assert_array_equal(array, want_array)


# ----------------------------------------------------------------------
# Incremental capture parity
# ----------------------------------------------------------------------


# Z-merge ties: hand-built batches against the full lexsort render.  With
# identity extrinsics z is the third coordinate, so TIE and its sub-pixel
# neighbor NEAR_TIE land on one pixel at exactly equal z.
TIE = (0.0, 0.0, 2.0)
NEAR_TIE = (0.001, 0.0, 2.0)
HIDDEN = (0.0, 0.0, -1.0)        # behind the camera: never a splat


def _tie_batch(key, static, points, seed):
    rng = np.random.default_rng(seed)
    # Some ordinary surface around the contested pixel, so the images are
    # more than one splat and the hole filling has work to do.
    cloud = rng.uniform(-0.6, 0.6, size=(150, 3)) + np.array([0.0, 0.0, 2.5])
    points = np.concatenate([np.array(points, dtype=np.float64).reshape(-1, 3), cloud])
    colors = rng.integers(0, 256, size=(len(points), 3)).astype(np.uint8)
    return SampleBatch(points, colors, static=static, key=key)


TIE_CASES = {
    "duplicate inside one dynamic batch": [("room", True, []), ("a", False, [TIE, TIE])],
    "same pixel and z inside one dynamic batch": [("a", False, [TIE, NEAR_TIE])],
    "across two dynamic batches": [
        ("room", True, []), ("a", False, [TIE]), ("b", False, [NEAR_TIE]),
    ],
    "static before dynamic": [("room", True, [TIE]), ("a", False, [TIE])],
    "dynamic before static": [("a", False, [TIE]), ("room", True, [TIE])],
    "static between two dynamic": [
        ("a", False, [TIE]), ("room", True, [NEAR_TIE]), ("b", False, [TIE]),
    ],
    "dynamic between two static": [
        ("room", True, [TIE]), ("a", False, [TIE]), ("shelf", True, [TIE]),
    ],
    "no dynamic batches": [("room", True, [TIE]), ("shelf", True, [TIE])],
    "no static batches": [("a", False, [TIE, TIE, TIE])],
    "no batches at all": [],
}


class TestIncrementalCapture:
    @pytest.mark.parametrize("video", ["band2", "office1", "dance5"])
    @given(
        sequences=st.lists(st.integers(0, 120), min_size=1, max_size=3),
        invalidate_before=st.integers(0, 3),
    )
    @settings(max_examples=6, deadline=None)
    def test_rig_source_and_oracle_capture_identically(
        self, video, sequences, invalidate_before
    ):
        # One-off rig captures (fresh caches), a long-lived cached source
        # and the lexsort oracle agree byte for byte, before and after
        # a scene edit.
        _, scene = load_video(video, sample_budget=4000)
        rig = default_rig(num_cameras=4, width=48, height=36)
        source = CachedFrameSource(rig, scene)
        for step, sequence in enumerate(sequences):
            if step == invalidate_before:
                scene.invalidate()
            want = full_render(rig, scene, sequence)
            _assert_frames_identical(source.capture(sequence), want)
            _assert_frames_identical(rig.capture(scene, sequence), want)

    def test_cached_capture_byte_identical_across_dynamic_scene(self):
        scene = _test_scene()
        rig = default_rig(num_cameras=5)
        cached = CachedFrameSource(rig, scene)
        for sequence in range(6):
            assert _frames_equal(cached.capture(sequence), full_render(rig, scene, sequence))

    def test_static_splats_are_cached(self):
        scene = _test_scene()
        rig = default_rig(num_cameras=3)
        source = CachedFrameSource(rig, scene)
        for sequence in range(4):
            source.capture(sequence)
        counters = source.counters()
        # First frame misses every static batch per camera; later frames
        # hit all of them.
        assert counters.misses > 0
        assert counters.hits == 3 * counters.misses

    def test_scene_invalidate_flushes_caches(self):
        scene = _test_scene()
        rig = default_rig(num_cameras=2)
        source = CachedFrameSource(rig, scene)
        before = source.capture(0)
        scene.invalidate()
        after = source.capture(0)
        # New epoch reseeds the static batches: frames must change, and
        # must match a fresh uncached render of the new epoch.
        assert not _frames_equal(before, after)
        assert _frames_equal(after, full_render(rig, scene, 0))
        # The frame memo keys on the epoch too: the repeat re-rendered.
        assert source.frame_counters.misses == 2
        assert source.capture(0) is after

    def test_memo_serves_repeats_out_of_order(self):
        scene = _test_scene()
        rig = default_rig(num_cameras=3)
        source = CachedFrameSource(rig, scene)
        seen = {}
        for sequence in [3, 0, 3, 1, 0, 5]:
            frame = source.capture(sequence)
            assert _frames_equal(frame, full_render(rig, scene, sequence))
            assert seen.setdefault(sequence, frame) is frame
        assert (source.frame_counters.hits, source.frame_counters.misses) == (2, 4)

    def test_captured_views_are_read_only(self):
        source = CachedFrameSource(default_rig(num_cameras=2), _test_scene())
        view = source.capture(0).views[0]
        with pytest.raises(ValueError):
            view.color[0, 0] = 1
        with pytest.raises(ValueError):
            view.depth_mm[0, 0] = 1
        copy = view.copy()
        copy.color[0, 0] = 1
        copy.depth_mm[0, 0] = 1

    def test_memo_bytes_stay_within_budget(self):
        # A call-sized rig: 10 x 80x60, 240 KB a frame.
        scene = _test_scene(sample_budget=3000)
        rig = default_rig()
        source = CachedFrameSource(rig, scene)
        first = source.capture(0)
        for sequence in range(1, 40):
            source.capture(sequence)
            held = sum(
                view.color.nbytes + view.depth_mm.nbytes
                for frame in source._frames.values()
                for view in frame.views
            )
            assert held <= FRAME_MEMO_BYTES
        assert 0 < len(source._frames) < 40
        again = source.capture(0)            # evicted long ago
        assert again is not first
        assert _frames_equal(again, first)
        assert source.frame_counters.misses == 41

    def test_projection_cache_render_matches_render_rgbd(self):
        scene = _test_scene()
        rig = default_rig(num_cameras=1)
        batches = scene.sample_batches(0.2)
        points = np.concatenate([b.points for b in batches])
        colors = np.concatenate([b.colors for b in batches])
        direct = render_rgbd(rig.cameras[0], points, colors, sequence=6)
        depth, color = ProjectionCache(rig.cameras[0]).render_arrays(batches)
        depth, color = fill_holes(depth, color)
        assert np.array_equal(direct.depth_mm, depth)
        assert np.array_equal(direct.color, color)

    @pytest.mark.parametrize("size", [(80, 60), (320, 260)], ids=["80x60", "320x260"])
    @pytest.mark.parametrize("case", sorted(TIE_CASES))
    def test_z_ties_resolve_like_the_full_render(self, case, size):
        # 320 x 260 puts pixel indices above 16 bits.
        camera = RGBDCamera(CameraIntrinsics.from_fov(*size), CameraExtrinsics(np.eye(4)))
        batches = [
            _tie_batch(key, static, points, seed)
            for seed, (key, static, points) in enumerate(TIE_CASES[case])
        ]
        points = np.concatenate([b.points for b in batches] + [np.zeros((0, 3))])
        colors = np.concatenate([b.colors for b in batches] + [np.zeros((0, 3), np.uint8)])
        cache = ProjectionCache(camera)
        for _ in range(2):                      # cold, then from the cached static image
            depth, color = cache.render_arrays(batches)
            unfilled = render_rgbd(camera, points, colors, hole_fill_iterations=0)
            assert np.array_equal(depth, unfilled.depth_mm)
            assert np.array_equal(color, unfilled.color)
            filled = render_rgbd(camera, points, colors)
            depth, color = fill_holes(depth, color)
            assert np.array_equal(depth, filled.depth_mm)
            assert np.array_equal(color, filled.color)

    def test_invisible_dynamic_splats_leave_the_static_image(self):
        camera = RGBDCamera(CameraIntrinsics.from_fov(80, 60), CameraExtrinsics(np.eye(4)))
        room = _tie_batch("room", True, [TIE], 20)
        hidden = SampleBatch(
            np.array([HIDDEN] * 4), np.full((4, 3), 255, np.uint8), static=False, key="a"
        )
        cache = ProjectionCache(camera)
        depth, color = cache.render_arrays([room, hidden])
        alone = render_rgbd(camera, room.points, room.colors, hole_fill_iterations=0)
        assert np.array_equal(depth, alone.depth_mm)
        assert np.array_equal(color, alone.color)

    def test_static_batches_identical_across_frames(self):
        scene = _test_scene()
        first = {b.key: b for b in scene.sample_batches(0.0) if b.static}
        later = {b.key: b for b in scene.sample_batches(0.5) if b.static}
        assert first.keys() == later.keys() and first
        for key in first:
            assert first[key].points is later[key].points

    def test_dynamic_batches_deterministic_and_time_varying(self):
        scene = _test_scene()
        a = [b for b in scene.sample_batches(0.3) if not b.static]
        b = [b for b in scene.sample_batches(0.3) if not b.static]
        c = [b for b in scene.sample_batches(0.4) if not b.static]
        assert a and len(a) == len(b) == len(c)
        for x, y, z in zip(a, b, c):
            assert np.array_equal(x.points, y.points)
            assert not np.array_equal(x.points, z.points)


# ----------------------------------------------------------------------
# Quality scoring parity
# ----------------------------------------------------------------------


def _cloud_pair(n: int = 4000, seed: int = 3) -> tuple[PointCloud, PointCloud]:
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-2.0, 2.0, size=(n, 3))
    colors = rng.integers(0, 256, size=(n, 3)).astype(np.uint8)
    reference = PointCloud(positions, colors)
    distorted = PointCloud(
        positions + rng.normal(scale=0.01, size=positions.shape),
        np.clip(colors.astype(np.int64) + rng.integers(-8, 8, size=colors.shape), 0, 255).astype(np.uint8),
    )
    return reference, distorted


class TestQualityScoring:
    """PointSSIM caches nothing; what stays here is the subsample mode
    and one fixed-input check against the scalar oracle."""

    def test_from_features_equals_one_shot_exactly(self):
        reference, distorted = _cloud_pair()
        one_shot = pointssim(reference, distorted)
        split = pointssim_from_features(
            precompute_features(reference), precompute_features(distorted)
        )
        assert one_shot.geometry == split.geometry
        assert one_shot.color == split.color

    def test_subsample_deterministic_under_fixed_seed(self):
        reference, _ = _cloud_pair(n=5000)
        a = stratified_subsample(reference, 1000, seed=42)
        b = stratified_subsample(reference, 1000, seed=42)
        c = stratified_subsample(reference, 1000, seed=43)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.colors, b.colors)
        assert len(a) == 1000
        assert not np.array_equal(a.positions, c.positions)

    def test_subsample_exact_passthrough_when_small_enough(self):
        reference, distorted = _cloud_pair(n=900)
        assert stratified_subsample(reference, 900, seed=0) is reference
        exact = pointssim(reference, distorted)
        with_knob = pointssim(reference, distorted, max_points=900)
        assert exact == with_knob

    def test_subsample_mode_scores_close_to_exact(self):
        reference, distorted = _cloud_pair(n=6000)
        exact = pointssim(reference, distorted)
        approx = pointssim(reference, distorted, max_points=2000, seed=1)
        assert abs(exact.geometry - approx.geometry) < 5.0
        assert abs(exact.color - approx.color) < 5.0


# ----------------------------------------------------------------------
# Codec scratch-arena parity
# ----------------------------------------------------------------------


def _video_frames(num: int = 4, seed: int = 5) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 256, size=(48, 64, 3)).astype(np.uint8)
    frames = [base]
    for _ in range(num - 1):
        drift = rng.integers(-6, 7, size=base.shape)
        frames.append(np.clip(frames[-1].astype(np.int64) + drift, 0, 255).astype(np.uint8))
    return frames


class TestScratchArena:
    """The arena-backed codec reproduces the bitstreams the arena-less
    codec (``weight_matrix``/``search_offsets``/``quantize`` called
    fresh per plane) produced before it was deleted (tests/twins.py)."""

    @pytest.mark.parametrize("depth_mode", [False, True])
    def test_bitstreams_byte_identical(self, depth_mode, oracle_transform):
        if depth_mode:
            config = VideoCodecConfig.for_depth(gop_size=3)
            rng = np.random.default_rng(9)
            frames = [
                (rng.integers(0, 60000, size=(48, 64))).astype(np.uint16)
                for _ in range(4)
            ]
        else:
            config = VideoCodecConfig(gop_size=3)
            frames = _video_frames()
        encoder = VideoEncoder(config)
        decoder = VideoDecoder(config)
        payloads, decodes = [], []
        for image in frames:
            frame, recon = encoder.encode(image, qp=28)
            payloads.append(frame.payload)
            decodes.append(decoder.to_image(decoder.decode(frame)).tobytes())
            assert np.array_equal(recon, np.frombuffer(
                decodes[-1], dtype=recon.dtype
            ).reshape(recon.shape))
        assert_pinned(
            f"codec:bitstreams_{'depth' if depth_mode else 'color'}",
            [payloads, decodes],
        )

    def test_arena_counters_record_hits(self):
        config = VideoCodecConfig(gop_size=4)
        encoder = VideoEncoder(config)
        for image in _video_frames(num=5):
            encoder.encode(image, qp=30)
        counters = encoder.cache_counters
        assert counters.hits > counters.misses

    def test_arena_holds_tables_not_plane_buffers(self):
        # The motion kernel allocates per call: an arena keeps only its
        # small tables, however many plane shapes its stream has coded.
        rng = np.random.default_rng(2)
        encoder = VideoEncoder(VideoCodecConfig(gop_size=4))
        for height, width in ((48, 64), (40, 56), (64, 96)):
            encoder.reset()
            for _ in range(10):
                image = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
                encoder.encode(image, qp=30)
        held = [
            value
            for table in vars(encoder._core.arena).values()
            if isinstance(table, dict)
            for value in table.values()
            if isinstance(value, np.ndarray)
        ]
        assert sum(array.nbytes for array in held) < 64 * 1024

    def test_rate_controlled_encode_identical(self, oracle_transform):
        encoder = VideoEncoder(VideoCodecConfig(gop_size=3))
        assert_pinned(
            "codec:rate_controlled",
            [
                encoder.encode_to_target(image, 6000)[0].payload
                for image in _video_frames(num=3)
            ],
        )


# ----------------------------------------------------------------------
# Session-level pin: the cached session reproduces the uncached one
# ----------------------------------------------------------------------


class TestSessionParity:
    def test_cached_session_matches_uncached(self, oracle_transform):
        scene = make_scene(
            "parity",
            num_people=1, num_props=2,
            motion_amplitude_m=0.25, motion_frequency_hz=1.0,
            sample_budget=8_000, seed=13,
        )
        config = SessionConfig(
            num_cameras=4, camera_width=48, camera_height=36,
            scene_sample_budget=8_000, gop_size=5,
        )
        report = LiVoSession(config).run(
            scene, user_traces_for_video("band2", 20)[0], trace_1(duration_s=10),
            8, video_name="parity",
        )
        assert_pinned("kernel_cache:session", report.asdict())


# ----------------------------------------------------------------------
# Satellite regressions
# ----------------------------------------------------------------------


class TestSatellites:
    def test_zigzag_cache_is_read_only(self):
        indices = zigzag_indices(8)
        assert not indices.flags.writeable
        with pytest.raises(ValueError):
            indices[0] = 99
        # A would-be mutation cannot corrupt later encodes.
        assert np.array_equal(indices, zigzag_indices(8))

    def test_bit_length_exact_over_powers_of_two_and_large_magnitudes(self):
        # Exact up to the 32-bit magnitudes the class stream can carry ...
        values = [1, 2, 3, 4, 7, 8, 9, 255, 256, 1023, 1024]
        values += [2**b for b in (16, 30, 31)] + [2**b - 1 for b in (16, 31, 32)]
        signed = np.array(values + [-v for v in values], dtype=np.int64)
        expected = np.array([int(v).bit_length() for v in values] * 2, dtype=np.int64)
        bit_lengths, _ = _magnitude_codes(signed)
        assert np.array_equal(bit_lengths, expected)
        # ... and every larger one, where float64 rounds, is rejected.
        for value in [2**32, 2**33 - 1, 2**52, 2**53 + 2, 2**62 + 2**10, 2**63 - 1024]:
            with pytest.raises(ValueError):
                _magnitude_codes(np.array([value, -value], dtype=np.int64))

    def test_entropy_roundtrip_with_large_levels(self):
        # Levels near the int32 extremes: the float-log2 bit length broke
        # exactly here (2^30-scale magnitudes round across the boundary).
        levels = np.zeros((2, 8, 8), dtype=np.int32)
        levels[0, 0, 0] = 2**30 - 1
        levels[0, 1, 0] = -(2**30)
        levels[1, 0, 0] = 2**31 - 1
        levels[1, 0, 1] = -(2**31 - 1)
        decoded = decode_levels(encode_levels(levels))
        assert np.array_equal(decoded, levels)

    def test_fill_holes_identical_to_reference_implementation(self):
        def reference_fill(depth, color, iterations=2, min_neighbors=3):
            depth = depth.astype(np.float64)
            color = color.astype(np.float64)
            height, width = depth.shape
            shifts = [
                (dy, dx)
                for dy in (-1, 0, 1)
                for dx in (-1, 0, 1)
                if (dy, dx) != (0, 0)
            ]
            for _ in range(iterations):
                valid = depth > 0
                if valid.all():
                    break
                neighbor_count = np.zeros((height, width))
                depth_sum = np.zeros((height, width))
                color_sum = np.zeros(color.shape)
                padded_depth = np.pad(depth, 1)
                padded_color = np.pad(color, ((1, 1), (1, 1), (0, 0)))
                padded_valid = np.pad(valid, 1)
                for dy, dx in shifts:
                    window = (
                        slice(1 + dy, 1 + dy + height),
                        slice(1 + dx, 1 + dx + width),
                    )
                    neighbor_valid = padded_valid[window]
                    neighbor_count += neighbor_valid
                    depth_sum += padded_depth[window] * neighbor_valid
                    color_sum += padded_color[window] * neighbor_valid[..., None]
                fill = (~valid) & (neighbor_count >= min_neighbors)
                if not fill.any():
                    break
                depth[fill] = depth_sum[fill] / neighbor_count[fill]
                color[fill] = color_sum[fill] / neighbor_count[fill][:, None]
            return (
                np.clip(np.rint(depth), 0, 65535).astype(np.uint16),
                np.clip(np.rint(color), 0, 255).astype(np.uint8),
            )

        rng = np.random.default_rng(17)
        depth = (rng.uniform(0, 4000, size=(40, 50))).astype(np.uint16)
        depth[rng.uniform(size=depth.shape) < 0.35] = 0
        color = rng.integers(0, 256, size=(40, 50, 3)).astype(np.uint8)
        for iterations in (1, 2, 4):
            got_d, got_c = fill_holes(depth, color, iterations=iterations)
            want_d, want_c = reference_fill(depth, color, iterations=iterations)
            assert np.array_equal(got_d, want_d)
            assert np.array_equal(got_c, want_c)

    def test_fill_holes_dense_input_unchanged(self):
        depth = np.full((8, 8), 1200, dtype=np.uint16)
        color = np.full((8, 8, 3), 90, dtype=np.uint8)
        out_d, out_c = fill_holes(depth, color)
        assert np.array_equal(out_d, depth)
        assert np.array_equal(out_c, color)
