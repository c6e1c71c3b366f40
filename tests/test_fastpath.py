"""The quality fast path: batched PointSSIM, executor parity, and
trace-driven verification.

The contracts under test are the ones the fast path is stated against:
the batched scorer is float-identical to the per-pair loop (and builds
shared references once), stratified subsampling has exact strata (no
duplicate picks) while reproducing the old outputs where those were
already correct, a session scoring on threads replays byte-identically
to the serial one and leaves no thread behind even when the run raises,
and the trace analyzer names the stages a change actually moved.
"""

import dataclasses
import threading

import numpy as np
import pytest

from repro.analysis.tracetools import (
    critical_path,
    critical_path_from_jsonl,
    diff_critical_paths,
    format_critical_path,
    format_diff,
)
from repro.capture.dataset import load_video
from repro.core.config import SessionConfig
from repro.core import session as session_module
from repro.core.session import LiVoSession
from repro.geometry.pointcloud import PointCloud
from repro.metrics.pointssim import (
    pointssim,
    pointssim_batch,
    stratified_subsample,
)
from repro.obs.export import write_spans_jsonl
from repro.obs.span import CLOCK_SIM, Span
from repro.prediction.pose import user_traces_for_video
from repro.transport.traces import trace_1
from tests.twins import assert_pinned


def _cloud(num_points: int, seed: int = 0) -> PointCloud:
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-1.0, 1.0, size=(num_points, 3))
    colors = rng.uniform(0.0, 1.0, size=(num_points, 3))
    return PointCloud(positions, colors)


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
        """Subsampled, with the shared truth served from the batch's
        per-call memo: still float-identical to the loop."""
        truth = _cloud(900, seed=6)
        pairs = [(truth, _cloud(800, seed=7)), (truth, _cloud(700, seed=8))]
        loop = [pointssim(ref, dist, max_points=256) for ref, dist in pairs]
        batch = pointssim_batch(pairs, max_points=256)
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
            ("thread", 3),
        ],
    )
    def test_report_byte_identical_across_executors(
        self, workload, executor, jobs, oracle_transform
    ):
        config, scene, user = workload
        report = LiVoSession(
            SessionConfig(**config, executor=executor, jobs=jobs)
        ).run(scene, user, trace_1(duration_s=5), 5)
        # Pinned from the fork pool's pickling lane (and the scalar
        # kernels) before they were deleted -- see tests/twins.py.
        assert_pinned("fastpath:six_camera_session", report.asdict())

    @pytest.fixture
    def tracked_pool(self, monkeypatch):
        """Every pool the session module builds, and every future submitted."""
        pools, futures = [], []

        class TrackingPool(session_module.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

            def submit(self, fn, *args):
                future = super().submit(fn, *args)
                futures.append(future)
                return future

        monkeypatch.setattr(session_module, "ThreadPoolExecutor", TrackingPool)
        return pools, futures

    def _assert_run_raises_and_leaks_nothing(self, workload, user, tracked_pool, match):
        config, scene, _ = workload
        pools, futures = tracked_pool
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match=match):
            LiVoSession(SessionConfig(**{**config, "quality_every": 1})).run(
                scene, user, trace_1(duration_s=5), 12
            )
        assert len(pools) == 1  # the lane's one scoring thread, built once
        assert futures and all(future.done() for future in futures)
        assert set(threading.enumerate()) == before

    def test_raising_session_leaks_no_thread_or_future(self, workload, tracked_pool):
        user = workload[2]

        class _Raising:
            name = user.name

            def pose_at_frame(self, index):
                if index == 4:
                    raise RuntimeError("pose trace ends here")
                return user.pose_at_frame(index)

        self._assert_run_raises_and_leaks_nothing(
            workload, _Raising(), tracked_pool, "pose trace ends here"
        )

    def test_raising_scoring_job_is_reraised_by_run(
        self, workload, tracked_pool, monkeypatch
    ):
        calls = []
        score = session_module.pointssim_batch

        def failing_score(*args, **kwargs):
            calls.append(threading.get_ident())
            if len(calls) == 2:
                raise RuntimeError("scorer failed")
            return score(*args, **kwargs)

        monkeypatch.setattr(session_module, "pointssim_batch", failing_score)
        self._assert_run_raises_and_leaks_nothing(
            workload, workload[2], tracked_pool, "scorer failed"
        )
        assert threading.get_ident() not in calls


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
        for name, factor in (("quality", 0.2), ("encode", 1.5), ("capture", 1.03)):
            timing = after.stages[name]
            after.stages[name] = dataclasses.replace(
                timing, samples=tuple(sample * factor for sample in timing.samples)
            )
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
        after.stages["render"] = dataclasses.replace(after.stages.pop("quality"), name="render")
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
        diff = diff_critical_paths(loaded, critical_path_from_jsonl(after_path))
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
