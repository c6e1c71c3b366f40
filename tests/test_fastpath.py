"""The quality/capture fast path: batched PointSSIM, the shared-memory
payload lane, incremental crash recovery, and trace-driven verification.

The contracts under test are the ones the fast path is stated against:
the batched scorer is float-identical to the per-pair loop (and builds
shared references once), stratified subsampling has exact strata (no
duplicate picks) while reproducing the old outputs where those were
already correct, shm-routed sessions replay byte-identically to plain
argument passing with zero leaked segments, a broken pool recomputes
only the unfinished items, and the trace analyzer names the stages a
change actually moved.
"""

import multiprocessing
import os
import pickle
import signal

import numpy as np
import pytest

from repro.analysis.tracetools import (
    critical_path,
    critical_path_from_jsonl,
    diff_critical_paths,
    diff_jsonl,
    format_critical_path,
    format_diff,
)
from repro.capture.dataset import load_video
from repro.capture.rgbd import MultiViewFrame, RGBDFrame
from repro.core.config import SessionConfig
from repro.core.receiver import DecodedPair
from repro.core.session import LiVoSession
from repro.geometry.pointcloud import PointCloud
from repro.metrics.pointssim import (
    pointssim,
    pointssim_batch,
    stratified_subsample,
)
from repro.obs.export import write_spans_jsonl
from repro.obs.span import CLOCK_SIM, Span
from repro.perf.features import FeatureCache
from repro.perf.shmframes import (
    load_cloud,
    load_multiview,
    load_pair,
    share_cloud,
    share_multiview,
    share_pair,
)
from repro.prediction.pose import user_traces_for_video
from repro.runtime.executors import ProcessExecutor
from repro.runtime.shm import (
    SHM_NAME_PREFIX,
    ShmArena,
    attach_array,
    detach_all,
)
from repro.transport.traces import trace_1
from tests.twins import assert_pinned


def _cloud(num_points: int, seed: int = 0) -> PointCloud:
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-1.0, 1.0, size=(num_points, 3))
    colors = rng.uniform(0.0, 1.0, size=(num_points, 3))
    return PointCloud(positions, colors)


def _shm_names() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith(SHM_NAME_PREFIX)}
    except FileNotFoundError:  # non-Linux: no name-level scan available
        return set()


# ----------------------------------------------------------------------
# Batched PointSSIM
# ----------------------------------------------------------------------


class TestBatchedPointSSIM:
    def test_batch_is_float_identical_to_loop(self):
        truth = _cloud(600, seed=1)
        pairs = [(truth, _cloud(500, seed=2)), (truth, _cloud(450, seed=3)),
                 (_cloud(400, seed=4), _cloud(380, seed=5))]
        loop = [pointssim(ref, dist) for ref, dist in pairs]
        batch = pointssim_batch(pairs)
        for single, batched in zip(loop, batch):
            assert batched.geometry == single.geometry
            assert batched.color == single.color

    def test_batch_with_subsample_and_cache_identical(self):
        truth = _cloud(900, seed=6)
        pairs = [(truth, _cloud(800, seed=7)), (truth, _cloud(700, seed=8))]
        loop = [
            pointssim(ref, dist, cache=FeatureCache(), max_points=256)
            for ref, dist in pairs
        ]
        batch = pointssim_batch(pairs, cache=FeatureCache(), max_points=256)
        for single, batched in zip(loop, batch):
            assert batched.geometry == single.geometry
            assert batched.color == single.color

    def test_shared_reference_features_built_once(self, monkeypatch):
        """R pairs against one truth: the loop builds features 2R times,
        the batch R+1 (the dedup the fan-out workloads bank on)."""
        import sys

        mod = sys.modules["repro.metrics.pointssim"]
        truth = _cloud(300, seed=9)
        pairs = [(truth, _cloud(280, seed=10 + i)) for i in range(3)]
        calls = []
        real = mod.precompute_features
        monkeypatch.setattr(
            mod, "precompute_features",
            lambda cloud, k=9: (calls.append(1) or real(cloud, k)),
        )
        pointssim_batch(pairs)
        assert len(calls) == len(pairs) + 1
        calls.clear()
        for ref, dist in pairs:
            pointssim(ref, dist)
        assert len(calls) == 2 * len(pairs)

    def test_empty_distorted_scores_zero_in_place(self):
        truth = _cloud(120, seed=11)
        empty = PointCloud(np.zeros((0, 3)), np.zeros((0, 3)))
        full = _cloud(100, seed=12)
        batch = pointssim_batch([(truth, empty), (truth, full)])
        assert batch[0].geometry == 0.0 and batch[0].color == 0.0
        single = pointssim(truth, full)
        assert batch[1].geometry == single.geometry

    def test_empty_reference_raises(self):
        empty = PointCloud(np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            pointssim_batch([(empty, _cloud(50, seed=13))])

    def test_empty_batch(self):
        assert pointssim_batch([]) == []


# ----------------------------------------------------------------------
# Exact stratified subsampling
# ----------------------------------------------------------------------


def _old_float_picks(n: int, max_points: int, seed: int) -> np.ndarray:
    """The retired float-linspace construction, verbatim: strata from
    floored linspace edges, zero-width strata widened, picks clamped."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, n, max_points)))
    edges = np.linspace(0, n, max_points + 1)
    lows = np.floor(edges[:-1]).astype(np.int64)
    highs = np.maximum(np.floor(edges[1:]).astype(np.int64), lows + 1)
    picks = lows + rng.integers(0, highs - lows)
    return np.minimum(picks, n - 1)


class TestStratifiedSubsample:
    def test_pins_old_outputs_where_already_correct(self):
        """Where the float edges landed on the exact integer strata the
        old picks were already correct -- the fix must reproduce them
        bit-for-bit (same seeded draws, same indices)."""
        for n, max_points in [(48000, 1000), (19773, 1500), (1000, 750), (100, 66)]:
            cloud = _cloud(n, seed=n % 97)
            for seed in range(3):
                new = stratified_subsample(cloud, max_points, seed=seed)
                old = cloud.select(_old_float_picks(n, max_points, seed))
                assert np.array_equal(new.positions, old.positions), (n, max_points, seed)
                assert np.array_equal(new.colors, old.colors)

    def test_strata_are_exact(self):
        """Every pick lands inside its own integer stratum
        [i*n//m, (i+1)*n//m), so picks are strictly increasing and can
        never duplicate -- including where the float construction's
        boundaries drifted (e.g. 48000/999)."""
        for n, max_points in [(48000, 999), (12345, 2000), (1000, 999), (10, 7)]:
            cloud = _cloud(n, seed=3)
            for seed in range(3):
                sub = stratified_subsample(cloud, max_points, seed=seed)
                assert sub.num_points == max_points
                index = np.arange(max_points + 1, dtype=np.int64)
                bounds = (index * n) // max_points
                # Recover picks through position identity: subsample
                # selects rows, so match rows back to their indices.
                order = {tuple(row): i for i, row in enumerate(cloud.positions)}
                picks = np.array([order[tuple(row)] for row in sub.positions])
                assert (picks >= bounds[:-1]).all()
                assert (picks < bounds[1:]).all()
                assert (np.diff(picks) > 0).all()

    def test_pass_through_and_validation(self):
        cloud = _cloud(64, seed=4)
        assert stratified_subsample(cloud, 64) is cloud
        assert stratified_subsample(cloud, 100) is cloud
        with pytest.raises(ValueError):
            stratified_subsample(cloud, 0)

    def test_seed_determinism(self):
        cloud = _cloud(5000, seed=5)
        a = stratified_subsample(cloud, 700, seed=11)
        b = stratified_subsample(cloud, 700, seed=11)
        c = stratified_subsample(cloud, 700, seed=12)
        assert np.array_equal(a.positions, b.positions)
        assert not np.array_equal(a.positions, c.positions)


# ----------------------------------------------------------------------
# Shared-memory arena lifecycle
# ----------------------------------------------------------------------


class TestShmArena:
    def test_handles_are_tiny_and_roundtrip(self):
        arena = ShmArena()
        try:
            depth = np.arange(24, dtype=np.float32).reshape(4, 6)
            color = np.arange(72, dtype=np.uint8).reshape(4, 6, 3)
            depth_ref, color_ref = arena.share(depth, color)
            assert len(pickle.dumps(depth_ref)) < 200
            assert np.array_equal(arena.view(depth_ref), depth)
            assert np.array_equal(attach_array(color_ref), color)
            arena.release(depth_ref)
            assert arena.active_segments == 0
        finally:
            detach_all()
            assert arena.close() == []

    def test_group_refcount_released_once(self):
        arena = ShmArena()
        try:
            refs, views = arena.allocate([((8,), np.float64), ((8,), np.float64)])
            views[0][:] = 1.0
            arena.retain(refs[0])
            arena.release(refs[1])  # any ref of the group drops the group
            assert arena.active_segments == 1
            arena.release(refs[0])
            assert arena.active_segments == 0
            # Releasing past zero (no longer owned) is a tolerated no-op.
            arena.release(refs[0])
        finally:
            assert arena.close() == []

    def test_pool_recycles_instead_of_unlinking(self):
        arena = ShmArena()
        try:
            names = set()
            for round_index in range(6):
                (ref,) = arena.share(np.full(1024, round_index, dtype=np.int64))
                names.add(ref.name)
                arena.release(ref)
            # Same layout every round: one segment created, then reused.
            assert arena.created == 1
            assert arena.recycled == 5
            assert arena.freed == 6
            assert len(names) == 1
        finally:
            assert arena.close() == []
        assert not _shm_names() & {next(iter(names))}

    def test_close_reports_leaked_segments(self):
        arena = ShmArena()
        (ref,) = arena.share(np.ones(16))
        leaked = arena.close()
        assert leaked == [ref.name]
        assert arena.close() == []  # idempotent once drained
        assert ref.name not in _shm_names()

    def test_close_unlinks_pooled_segments(self):
        arena = ShmArena()
        (ref,) = arena.share(np.ones(512))
        arena.release(ref)  # parked in the pool, name still on /dev/shm
        assert arena.close() == []
        assert ref.name not in _shm_names()

    def test_owns_and_foreign_refs(self):
        arena, other = ShmArena(), ShmArena()
        try:
            (ref,) = arena.share(np.ones(4))
            assert arena.owns(ref) and not other.owns(ref)
            with pytest.raises(KeyError):
                other.retain(ref)
            with pytest.raises(KeyError):
                other.view(ref)
        finally:
            arena.close()
            other.close()

    def test_threaded_attach_storm_is_safe(self):
        """ISSUE 10 satellite: ``_attach`` swaps a process-global
        (``resource_tracker.register``) on Python <= 3.12; concurrent
        attaches from pool threads must serialize on the module lock,
        attach every segment exactly once, and leave the tracker's
        ``register`` exactly as it found it."""
        import threading
        from multiprocessing import resource_tracker

        from repro.runtime import shm as shm_module

        original_register = resource_tracker.register
        arena = ShmArena()
        try:
            arrays = [
                np.full((8, 8), fill, dtype=np.float32) for fill in range(12)
            ]
            refs = [arena.share(array)[0] for array in arrays]
            errors = []
            barrier = threading.Barrier(8)

            def storm(worker: int) -> None:
                try:
                    barrier.wait(5.0)
                    for round_index in range(40):
                        ref = refs[(worker + round_index) % len(refs)]
                        view = attach_array(ref)
                        expected = (worker + round_index) % len(refs)
                        if view[0, 0] != expected:
                            raise AssertionError(
                                f"worker {worker} saw {view[0, 0]}, "
                                f"wanted {expected}"
                            )
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(error)

            threads = [
                threading.Thread(target=storm, args=(n,)) for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            assert errors == []
            # The tracker global is restored, not left wrapped by a
            # half-finished swap.
            assert resource_tracker.register is original_register
            # Each segment attached once, not once per thread.
            assert len(shm_module._ATTACHED) <= len(refs)
        finally:
            detach_all()
            arena.close()
            assert resource_tracker.register is original_register


# ----------------------------------------------------------------------
# Payload codecs over the arena
# ----------------------------------------------------------------------


def _frame(num_views: int = 2, sequence: int = 0) -> MultiViewFrame:
    rng = np.random.default_rng(40 + sequence)
    views = [
        RGBDFrame(
            rng.integers(0, 255, size=(6, 8, 3), dtype=np.uint8),
            rng.uniform(100.0, 4000.0, size=(6, 8)).astype(np.float32),
            camera_id=i,
            sequence=sequence,
            timestamp_s=sequence / 30.0,
        )
        for i in range(num_views)
    ]
    return MultiViewFrame(views, sequence=sequence, timestamp_s=sequence / 30.0)


class TestShmPayloads:
    def test_multiview_copy_path_roundtrip(self):
        arena = ShmArena()
        try:
            frame = _frame()
            handle = share_multiview(arena, frame)
            loaded = load_multiview(handle)
            assert loaded.sequence == frame.sequence
            for original, view in zip(frame.views, loaded.views):
                assert np.array_equal(view.depth_mm, original.depth_mm)
                assert np.array_equal(view.color, original.color)
                assert view.camera_id == original.camera_id
            for ref in handle.segment_refs:
                arena.release(ref)
            assert arena.active_segments == 0
        finally:
            detach_all()
            assert arena.close() == []

    def test_multiview_alias_path_copies_nothing(self):
        """A frame captured through the arena (shm_view_refs attached)
        is shared by retaining its existing segments, not by packing a
        fresh copy."""
        arena = ShmArena()
        try:
            template = _frame()
            shapes = []
            for view in template.views:
                shapes.append((view.depth_mm.shape, view.depth_mm.dtype))
            for view in template.views:
                shapes.append((view.color.shape, view.color.dtype))
            refs, views = arena.allocate(shapes)
            count = len(template.views)
            for i, view in enumerate(template.views):
                views[i][...] = view.depth_mm
                views[count + i][...] = view.color
            frame = MultiViewFrame(
                [
                    RGBDFrame(views[count + i], views[i], camera_id=i,
                              sequence=0, timestamp_s=0.0)
                    for i in range(count)
                ],
                sequence=0,
                timestamp_s=0.0,
            )
            frame.shm_refs = [refs[0]]
            frame.shm_view_refs = [(refs[i], refs[count + i]) for i in range(count)]

            created_before = arena.created
            handle = share_multiview(arena, frame)
            assert arena.created == created_before  # aliased, no new segment
            loaded = load_multiview(handle)
            for original, view in zip(template.views, loaded.views):
                assert np.array_equal(view.depth_mm, original.depth_mm)
            for ref in handle.segment_refs:
                arena.release(ref)
            assert arena.active_segments == 1  # capture's own ref still live
            arena.release(refs[0])
            assert arena.active_segments == 0
        finally:
            detach_all()
            assert arena.close() == []

    def test_share_frame_without_views_raises(self):
        arena = ShmArena()
        try:
            with pytest.raises(ValueError):
                share_multiview(arena, MultiViewFrame([], sequence=0, timestamp_s=0.0))
        finally:
            arena.close()

    def test_cloud_roundtrip(self):
        arena = ShmArena()
        try:
            cloud = _cloud(64, seed=14)
            handle = share_cloud(arena, cloud)
            loaded = load_cloud(handle)
            assert np.array_equal(loaded.positions, cloud.positions)
            assert np.array_equal(loaded.colors, cloud.colors)
            for ref in handle.segment_refs:
                arena.release(ref)
        finally:
            detach_all()
            assert arena.close() == []

    def test_decoded_pair_roundtrip(self):
        arena = ShmArena()
        try:
            rng = np.random.default_rng(15)
            pair = DecodedPair(
                sequence=7,
                color_tiles=[rng.integers(0, 255, size=(4, 5, 3), dtype=np.uint8)
                             for _ in range(3)],
                depth_tiles_mm=[rng.uniform(0, 4000, size=(4, 5)).astype(np.float32)
                                for _ in range(3)],
            )
            handle = share_pair(arena, pair)
            loaded = load_pair(handle)
            assert loaded.sequence == 7
            for a, b in zip(loaded.color_tiles, pair.color_tiles):
                assert np.array_equal(a, b)
            for a, b in zip(loaded.depth_tiles_mm, pair.depth_tiles_mm):
                assert np.array_equal(a, b)
            for ref in handle.segment_refs:
                arena.release(ref)
            assert arena.active_segments == 0
        finally:
            detach_all()
            assert arena.close() == []


# ----------------------------------------------------------------------
# Incremental crash recovery
# ----------------------------------------------------------------------


def _square_or_kill(item):
    """Kill the hosting *worker* on negative items; square otherwise.

    The in-process recomputation path sees no parent process, so the
    retried item succeeds there -- modelling a poison task that only
    crashes the pool, not the session.
    """
    if item < 0 and multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return item * item


class TestIncrementalCrashRecovery:
    def test_map_recomputes_only_unfinished_items(self):
        executor = ProcessExecutor(jobs=1)
        try:
            results = executor.map(_square_or_kill, [1, 2, -3, 4])
            assert results == [1, 4, 9, 16]
            assert executor.crashes == 1
            # Items 1 and 2 completed before the worker died; only the
            # poisoned item and its successor were redone in-process.
            assert executor.recomputed == 2
            # Subsequent maps stay in-process, no further crashes.
            assert executor.map(_square_or_kill, [5]) == [25]
            assert executor.crashes == 1
        finally:
            executor.close()


# ----------------------------------------------------------------------
# Executor parity on a six-camera session
# ----------------------------------------------------------------------


class TestExecutorParitySixCameras:
    @pytest.fixture(scope="class")
    def workload(self):
        config = dict(
            num_cameras=6, camera_width=32, camera_height=24,
            scene_sample_budget=5000, gop_size=5, quality_every=2,
        )
        _, scene = load_video("office1", sample_budget=5000)
        user = user_traces_for_video("office1", 16)[0]
        return config, scene, user

    @pytest.mark.parametrize(
        "executor,jobs",
        [
            ("serial", 1),
            ("thread", 2),
            ("process", 2),  # zero-copy lane: a process pool owns a ShmArena
            ("process", 3),
        ],
    )
    def test_report_byte_identical_across_executors(self, workload, executor, jobs):
        config, scene, user = workload
        report = LiVoSession(
            SessionConfig(**config, executor=executor, jobs=jobs)
        ).run(scene, user, trace_1(duration_s=5), 5)
        # Pinned from the pickling lane (and the scalar kernels) before
        # they were deleted -- see tests/twins.py.
        assert_pinned("fastpath:six_camera_session", report.asdict())

    def test_shm_session_leaks_nothing(self, workload):
        config, scene, user = workload
        before = _shm_names()
        report = LiVoSession(
            SessionConfig(**config, executor="process", jobs=2)
        ).run(scene, user, trace_1(duration_s=5), 5)
        assert report.metrics.counter("shm.segments_created").value > 0
        assert report.metrics.counter("shm.segments_leaked").value == 0
        residue = _shm_names() - before
        assert residue == set()


# ----------------------------------------------------------------------
# Trace analysis
# ----------------------------------------------------------------------


def _stage_span(name, trace_id, span_id, start_s, end_s, category="stage",
                clock="wall"):
    return Span(
        name=name, category=category, trace_id=trace_id, span_id=span_id,
        parent_id=None, start_s=start_s, end_s=end_s, clock=clock,
    )


def _synthetic_trace(scale: float) -> list:
    spans = []
    sid = 0
    for frame in range(3):
        base = frame * 1.0
        for name, width in (("capture", 0.10), ("encode", 0.20), ("quality", 0.05)):
            spans.append(
                _stage_span(name, frame, sid, base, base + width * scale)
            )
            sid += 1
    # Noise the analyzer must ignore: sim-clock, foreign category, open.
    spans.append(_stage_span("frame", 0, 900, 0.0, 3.0, category="frame",
                             clock=CLOCK_SIM))
    spans.append(_stage_span("worker:quality", 0, 901, 0.0, 0.4,
                             category="worker"))
    spans.append(_stage_span("capture", 2, 902, 9.0, None))
    return spans


class TestTraceTools:
    def test_critical_path_aggregates_stage_spans_only(self):
        path = critical_path(_synthetic_trace(1.0))
        assert path.frames == 3
        assert set(path.stages) == {"capture", "encode", "quality"}
        assert path.stages["capture"].count == 3
        assert path.stages["capture"].total_s == pytest.approx(0.30)
        assert path.total_s == pytest.approx(3 * 0.35)
        assert path.ordered()[0].name == "encode"

    def test_diff_names_movement_beyond_tolerance(self):
        before = critical_path(_synthetic_trace(1.0))
        after = critical_path(_synthetic_trace(1.0))
        # Surgical movement: quality collapses, encode swells, capture
        # jitters within tolerance.
        after.stages["quality"].total_s *= 0.2
        after.stages["encode"].total_s *= 1.5
        after.stages["capture"].total_s *= 1.03
        diff = diff_critical_paths(before, after, rel_tolerance=0.05)
        verdicts = {d.name: d.verdict for d in diff.deltas}
        assert verdicts == {
            "quality": "improved", "encode": "regressed", "capture": "unchanged",
        }
        assert [d.name for d in diff.improved] == ["quality"]
        assert [d.name for d in diff.regressed] == ["encode"]

    def test_diff_marks_added_and_removed_stages(self):
        before = critical_path(_synthetic_trace(1.0))
        after = critical_path(_synthetic_trace(1.0))
        after.stages["render"] = after.stages.pop("quality")
        after.stages["render"].name = "render"
        diff = diff_critical_paths(before, after)
        verdicts = {d.name: d.verdict for d in diff.deltas}
        assert verdicts["quality"] == "removed"
        assert verdicts["render"] == "added"
        # Added counts as regression pressure, removed as improvement.
        assert "render" in [d.name for d in diff.regressed]
        assert "quality" in [d.name for d in diff.improved]

    def test_jsonl_roundtrip_and_speedup(self, tmp_path):
        before_path = tmp_path / "before.jsonl"
        after_path = tmp_path / "after.jsonl"
        write_spans_jsonl(_synthetic_trace(1.0), before_path)
        write_spans_jsonl(_synthetic_trace(0.5), after_path)
        loaded = critical_path_from_jsonl(before_path)
        assert loaded.total_s == pytest.approx(critical_path(_synthetic_trace(1.0)).total_s)
        diff = diff_jsonl(before_path, after_path)
        assert diff.speedup == pytest.approx(2.0)
        assert {d.name for d in diff.improved} == {"capture", "encode", "quality"}

    def test_formatters_are_greppable(self):
        diff = diff_critical_paths(
            critical_path(_synthetic_trace(1.0)),
            critical_path(_synthetic_trace(0.5)),
        )
        path_text = format_critical_path(diff.before)
        diff_text = format_diff(diff)
        assert "encode" in path_text
        assert "speedup 2.00x" in diff_text
        assert "improved:" in diff_text

    def test_cli_analyze_trace(self, tmp_path, capsys):
        from repro.cli import main

        before_path = tmp_path / "a.jsonl"
        after_path = tmp_path / "b.jsonl"
        write_spans_jsonl(_synthetic_trace(1.0), before_path)
        write_spans_jsonl(_synthetic_trace(0.5), after_path)
        assert main(["analyze-trace", str(before_path)]) == 0
        assert "ms over 3 frames" in capsys.readouterr().out
        assert main(["analyze-trace", str(before_path), str(after_path)]) == 0
        assert "speedup" in capsys.readouterr().out
