"""The observability layer (repro.obs) and the bugfix sweep around it.

Contracts under test:

- spans are deterministic under an injected clock and nest through the
  thread-local context; a quality job on a pool thread records its
  span on the session tracer under the stage span that submitted it;
- the metrics registry keeps exact quantiles, and every telemetry
  producer writes itself in under its established names;
- every session records at least one span per frame for every
  pipeline stage (capture, encode, transport, decode, render), closes
  every span, and -- the prime directive -- two replays of one workload
  leave byte-identical SessionReports whatever their spans measured;
- a stage whose body raises closes its span as an error, never leaks
  an open one;
- the stats/analysis bugfixes: MTTR must not count open episodes as
  recoveries, and a measured 0.0 ms latency is a measurement, not a
  missing value.
"""

import dataclasses
import json
import math
import os
import re
import sys
import threading

import pytest

from repro.analysis.resilience import _mttr, summarize_resilience
from repro.capture.dataset import load_video
from repro.core.config import SessionConfig
from repro.core.schemes import SCHEMES
from repro.core.session import LiVoSession, run_scheme
from repro.faults.plan import FaultPlan, LinkOutage
from repro.metrics.latency import LIVO_STAGES, LatencyBreakdown
from repro.obs.clock import FakeClock
from repro.obs.export import (
    SIM_PID,
    chrome_trace_events,
    read_spans_jsonl,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import CLOCK_SIM, CLOCK_WALL, STATUS_INCOMPLETE
from repro.obs.timeline import format_timeline, frame_timelines
from repro.obs.tracer import Tracer
from repro.perf.counters import CacheCounters
from repro.prediction.pose import user_traces_for_video
from repro.runtime.stage import Stage
from repro.scenario.invariants import check_report
from repro.sfu.fleet import FleetConfig, run_fleet
from repro.transport.traces import trace_1


class TestFakeClock:
    def test_advance_and_set(self):
        clock = FakeClock(10.0)
        assert clock.now() == 10.0
        clock.advance(2.5)
        assert clock.now() == 12.5
        clock.set(20.0)
        assert clock.now() == 20.0

    def test_backwards_time_rejected(self):
        clock = FakeClock(5.0)
        with pytest.raises(ValueError):
            clock.advance(-0.1)
        with pytest.raises(ValueError):
            clock.set(4.9)


class TestTracer:
    def test_deterministic_spans_under_fake_clock(self):
        tracer = Tracer(FakeClock(100.0))
        span = tracer.start_span("encode", category="stage", trace_id=3)
        tracer.clock.advance(0.25)
        tracer.end_span(span)
        assert span.start_s == 100.0
        assert span.end_s == 100.25
        assert span.duration_s == 0.25
        assert span.clock == CLOCK_WALL
        assert span.status == "ok"

    def test_end_span_idempotent(self):
        tracer = Tracer(FakeClock())
        span = tracer.start_span("x")
        tracer.clock.advance(1.0)
        tracer.end_span(span)
        first_end = span.end_s
        tracer.clock.advance(1.0)
        tracer.end_span(span, status="error")  # must not reopen/restamp
        assert span.end_s == first_end and span.status == "ok"

    def test_context_manager_marks_errors(self):
        tracer = Tracer(FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (span,) = tracer.spans()
        assert span.end_s is not None and span.status == "error"
        assert tracer.open_spans() == []

    def test_frame_roots_parent_their_stages(self):
        tracer = Tracer(FakeClock())
        root = tracer.open_frame(4, sim_time_s=0.133)
        assert root.clock == CLOCK_SIM and root.trace_id == 4
        assert tracer.frame_root(4) == root.span_id
        assert tracer.frame_root(5) is None
        assert tracer.frame_root(None) is None
        tracer.close_frame(4, sim_time_s=0.3, status="rendered")
        assert root.end_s == 0.3 and root.status == "rendered"
        tracer.close_frame(4, sim_time_s=9.9, status="late")  # idempotent
        assert root.end_s == 0.3 and root.status == "rendered"

    def test_finish_closes_stragglers_incomplete(self):
        tracer = Tracer(FakeClock(50.0))
        wall = tracer.start_span("stuck")
        sim = tracer.open_frame(0, sim_time_s=0.1)
        tracer.clock.advance(2.0)
        tracer.finish(sim_time_s=1.5)
        assert wall.end_s == 52.0 and wall.status == STATUS_INCOMPLETE
        assert sim.end_s == 1.5 and sim.status == STATUS_INCOMPLETE
        assert tracer.open_spans() == []

    def test_pool_threads_share_one_tracer(self):
        """More threads than cores open nested spans on one tracer with a
        tiny switch interval: ids stay unique and every inner span nests
        under the outer span its thread named as its parent."""
        tracer = Tracer(FakeClock())
        threads_n, rounds = 8, 200

        def work(index):
            for _ in range(rounds):
                with tracer.span("outer", category="worker", trace_id=index) as outer:
                    with tracer.span(
                        "inner", category="kernel", trace_id=index, parent_id=outer.span_id
                    ):
                        pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(index,)) for index in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        spans = tracer.spans()
        assert len(spans) == 2 * threads_n * rounds
        assert len({span.span_id for span in spans}) == len(spans)
        by_id = {span.span_id: span for span in spans}
        for span in spans:
            if span.name == "inner":
                outer = by_id[span.parent_id]
                assert outer.name == "outer" and outer.tid == span.tid
                assert span.trace_id == outer.trace_id
        assert tracer.open_spans() == []

    def test_instant_is_zero_duration(self):
        tracer = Tracer(FakeClock())
        mark = tracer.instant("fault:link_outage", "fault", trace_id=9, time_s=0.5)
        assert mark.instant
        assert mark.start_s == mark.end_s == 0.5
        assert mark.attrs["instant"] is True


class TestMetrics:
    def test_counter_only_goes_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("frames")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = MetricsRegistry().gauge("rate")
        gauge.set(1.0)
        gauge.set(2.5)
        assert gauge.value == 2.5

    def test_histogram_exact_quantiles(self):
        histogram = MetricsRegistry().histogram("ms")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        assert histogram.quantile(0.0) == 1.0
        assert histogram.quantile(1.0) == 4.0
        assert histogram.quantile(0.5) == 2.5  # exact interpolation
        assert histogram.mean == 2.5
        histogram.observe(5.0)  # cache invalidated on write
        assert histogram.quantile(1.0) == 5.0
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        with pytest.raises(KeyError):
            registry.get("missing")

    def test_cache_stats_shim(self):
        # The counters own the ``cache.<name>.*`` naming.
        registry = MetricsRegistry()
        CacheCounters("capture_projection", hits=10, misses=2).metrics_into(registry)
        assert registry.get("cache.capture_projection.hits").value == 10
        assert registry.get("cache.capture_projection.misses").value == 2
        assert registry.get("cache.capture_projection.hit_rate").value == round(10 / 12, 4)
        CacheCounters("cull_projection", hits=3, misses=1).metrics_into(registry)
        assert registry.get("cache.cull_projection.hit_rate").value == 0.75


def _sample_spans():
    """A tiny deterministic trace: frame root + stage + instant."""
    tracer = Tracer(FakeClock(100.0))
    tracer.open_frame(0, sim_time_s=0.0)
    stage = tracer.start_span(
        "encode", category="stage", trace_id=0, parent_id=tracer.frame_root(0)
    )
    tracer.clock.advance(0.004)
    tracer.end_span(stage)
    tracer.instant("fault:burst_loss", "fault", trace_id=0, time_s=0.01)
    tracer.add_span(
        "transport:color", "transport", trace_id=0, start_s=0.0, end_s=0.05,
        parent_id=tracer.frame_root(0),
    )
    tracer.close_frame(0, sim_time_s=0.1, status="rendered")
    return tracer.spans()


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        spans = _sample_spans()
        path = write_spans_jsonl(spans, tmp_path / "trace.jsonl")
        loaded = read_spans_jsonl(path)
        assert [dataclasses.asdict(s) for s in loaded] == [
            dataclasses.asdict(s) for s in spans
        ]

    @pytest.mark.parametrize(
        "damage,reason",
        [
            (lambda line: "[1, 2]", "not a span record"),
            (lambda line: line.replace('"cat": "stage", ', ""), "lacks 'cat'"),
            (lambda line: line[:-4], "not a span record"),
            (
                lambda line: re.sub(r'"start_s": [^,]*', '"start_s": "soon"', line),
                "'start_s' holds str",
            ),
        ],
        ids=["not-an-object", "missing-field", "truncated", "wrong-type"],
    )
    def test_damaged_span_file_is_a_usage_error(self, tmp_path, capsys, damage, reason):
        from repro.cli import main

        path = write_spans_jsonl(_sample_spans(), tmp_path / "trace.jsonl")
        lines = path.read_text().splitlines()
        stage_line = next(i for i, line in enumerate(lines) if '"cat": "stage"' in line)
        lines[stage_line] = damage(lines[stage_line])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"line {stage_line + 1}: .*{reason}"):
            read_spans_jsonl(path)
        assert main(["analyze-trace", str(path)]) == 2
        assert f"line {stage_line + 1}" in capsys.readouterr().err

    def test_chrome_events_shape(self):
        events = chrome_trace_events(_sample_spans())
        by_ph = {}
        for event in events:
            by_ph.setdefault(event["ph"], []).append(event)
        # Metadata rows for the real process and the synthetic sim one.
        pids = {event["pid"] for event in by_ph["M"]}
        assert SIM_PID in pids and os.getpid() in pids
        # The wall stage span is a complete event rebased to ts 0.
        (stage,) = by_ph["X"]
        assert stage["name"] == "encode"
        assert stage["ts"] == pytest.approx(0.0)
        assert stage["dur"] == pytest.approx(4000.0)  # 4 ms in us
        assert stage["args"]["trace"] == 0
        # Sim spans (frame root + transport) are async begin/end pairs
        # with matching ids under the synthetic pid.
        assert len(by_ph["b"]) == len(by_ph["e"]) == 2
        for begin in by_ph["b"]:
            assert begin["pid"] == SIM_PID
            assert any(e["id"] == begin["id"] for e in by_ph["e"])
        # The fault edge is an instant mark.
        (mark,) = by_ph["i"]
        assert mark["name"] == "fault:burst_loss" and mark["s"] == "p"

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        path = write_chrome_trace(
            _sample_spans(), tmp_path / "trace.json", metadata={"scheme": "LiVo"}
        )
        document = json.loads(path.read_text())
        assert isinstance(document["traceEvents"], list)
        assert document["metadata"]["scheme"] == "LiVo"
        assert document["displayTimeUnit"] == "ms"


class TestTimeline:
    def test_frame_timelines_aggregate_by_category(self):
        timelines = frame_timelines(_sample_spans())
        assert list(timelines) == [0]
        row = timelines[0]
        assert row["status"] == "rendered"
        assert row["start_s"] == 0.0 and row["end_s"] == 0.1
        assert row["stages"]["encode"] == pytest.approx(4.0)
        assert row["transport_ms"]["transport:color"] == pytest.approx(50.0)
        assert row["events"] == ["fault:burst_loss"]

    def test_format_timeline_renders_and_limits(self):
        timelines = frame_timelines(_sample_spans())
        table = format_timeline(timelines)
        assert "rendered" in table and "encode" in table
        assert format_timeline({}) == "(no trace recorded)"


class TestStageTracing:
    def test_stage_emits_span_per_item(self):
        tracer = Tracer(FakeClock())
        stage = Stage("double", lambda x: 2 * x, tracer, seq_fn=lambda item: item)
        assert stage(3) == 6
        (span,) = tracer.spans()
        assert span.name == "double" and span.category == "stage"
        assert span.trace_id == 3 and span.end_s is not None

    def test_stage_error_closes_span_with_error_status(self):
        tracer = Tracer(FakeClock())

        def boom(item):
            raise RuntimeError("stage body failed")

        stage = Stage("explode", boom, tracer, seq_fn=lambda item: item)
        with pytest.raises(RuntimeError):
            stage(1)
        (span,) = tracer.spans()
        assert span.status == "error" and span.end_s is not None
        assert tracer.open_spans() == []


@pytest.fixture(scope="module")
def session_workload():
    config = SessionConfig(
        num_cameras=3, camera_width=32, camera_height=24,
        scene_sample_budget=5000, gop_size=5, quality_every=3,
    )
    _, scene = load_video("office1", sample_budget=5000)
    user = user_traces_for_video("office1", 26)[0]
    return config, scene, user


FRAMES = 16


@pytest.fixture(scope="module")
def traced_pair(session_workload):
    """Two reports of the identical workload, each with its own trace."""
    config, scene, user = session_workload
    return tuple(
        LiVoSession(config).run(scene, user, trace_1(duration_s=5), FRAMES)
        for _ in range(2)
    )


class TestSessionTracing:
    def test_tracing_never_steers_the_session(self, traced_pair):
        plain, traced = traced_pair
        assert dataclasses.asdict(plain) == dataclasses.asdict(traced)
        assert plain.trace is not None and traced.trace is not None
        assert plain.trace is not traced.trace

    def test_every_frame_has_every_pipeline_stage(self, traced_pair):
        _, traced = traced_pair
        spans = traced.trace.spans()
        by_frame: dict[int, set] = {}
        for span in spans:
            if span.trace_id is not None:
                by_frame.setdefault(span.trace_id, set()).add(span.name)
        for frame in traced.frames:
            names = by_frame.get(frame.sequence, set())
            assert "capture" in names and "encode" in names, frame.sequence
            if frame.rendered:
                assert {"transport:color", "transport:depth"} <= names
                assert "decode" in names
                assert "render" in names

    def test_frame_roots_cover_every_frame_and_close(self, traced_pair):
        _, traced = traced_pair
        roots = [s for s in traced.trace.spans() if s.category == "frame"]
        assert {s.trace_id for s in roots} == {f.sequence for f in traced.frames}
        statuses = {s.status for s in roots}
        assert statuses <= {
            "rendered", "late", "frozen", "undecodable", "undelivered",
            "skipped", "encode_failed", "empty",
        }
        assert all(s.end_s is not None for s in roots)
        assert traced.trace.open_spans() == []

    def test_rendered_roots_match_report(self, traced_pair):
        _, traced = traced_pair
        rendered_roots = {
            s.trace_id
            for s in traced.trace.spans()
            if s.category == "frame" and s.status == "rendered"
        }
        rendered_frames = {f.sequence for f in traced.frames if f.rendered}
        assert rendered_roots == rendered_frames

    def test_metrics_registry_always_attached(self, traced_pair):
        plain, traced = traced_pair
        for report in (plain, traced):
            registry = report.metrics
            assert registry is not None
            names = registry.names()
            assert any(name.startswith("transport.") for name in names)
            assert registry.get("transport.target_rate_bps").value > 0
        assert "transport.frames_lost" in plain.metrics.names()

    def test_registry_holds_no_copy_of_another_record(self, session_workload, fleet_shape):
        """Stage times are the trace's, fault counts the report's and
        cache tallies its ``cache_stats``: the registry copies none."""
        config, scene, user = session_workload
        report = LiVoSession(config).run(
            scene, user, trace_1(duration_s=5), FRAMES,
            fault_plan=FaultPlan(seed=3, link_outages=(LinkOutage(0.1, 0.3),)),
        )
        assert report.fault_counts() and report.cache_stats
        names = report.metrics.names()
        assert "faults.link_fault_drops" in names
        copies = [
            name for name in names
            if name.startswith(("stage.", "cache."))
            or (name.startswith("faults.") and name != "faults.link_fault_drops")
        ]
        assert copies == []
        fleet_shape(receivers=2, churn_every=3, sample_budget=1500, unicast_control=1)
        fleet = run_fleet(FleetConfig(sessions=2, frames=3))
        assert fleet.sfu_metrics
        assert [name for name in fleet.sfu_metrics if name.startswith("cache.")] == []

    def test_timeline_summary_on_report(self, traced_pair):
        plain, traced = traced_pair
        timelines = traced.frame_timeline()
        assert set(timelines) == {f.sequence for f in traced.frames}
        table = traced.timeline_table(limit=5)
        assert "capture" in table and "encode" in table
        bare = dataclasses.replace(plain)  # fields only: no trace attached
        assert bare.frame_timeline() == {}
        assert bare.timeline_table() == "(no trace recorded)"

    def test_chrome_export_of_a_real_session(self, traced_pair, tmp_path):
        _, traced = traced_pair
        path = write_chrome_trace(traced.trace.spans(), tmp_path / "session.json")
        document = json.loads(path.read_text())
        phases = {event["ph"] for event in document["traceEvents"]}
        assert {"X", "b", "e", "M"} <= phases


# The stages each scheme's replay declares, in report order.
DECLARED_STAGES = {
    "LiVo": ("capture", "prepare", "encode", "decode", "quality"),
    "LiVo-NoCull": ("capture", "prepare", "encode", "decode", "quality"),
    "LiVo-NoAdapt": ("capture", "prepare", "encode", "decode", "quality"),
    "Draco-Oracle": ("capture", "cull", "encode", "quality"),
    "MeshReduce": ("capture", "compress", "quality"),
}


class TestEveryReplayTraced:
    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_stage_timings_are_the_trace_stage_spans(self, session_workload, scheme):
        """Every scheme's replay returns a closed trace, and its stage
        timings are that trace's wall-clock stage spans: the declared
        stages in order, one sample per span, each span's duration."""
        config, scene, user = session_workload
        report = run_scheme(
            dataclasses.replace(config, scheme=scheme), scene, user, trace_1(duration_s=5), 8
        )
        assert report.trace is not None and report.trace.open_spans() == []
        spans = [
            span for span in report.trace.spans()
            if span.category == "stage" and span.clock == CLOCK_WALL
        ]
        assert spans and all(span.trace_id is not None for span in spans)
        declared = DECLARED_STAGES[scheme]
        assert tuple(report.stage_timings) == declared
        assert {span.name for span in spans} <= set(declared)
        for name, timing in report.stage_timings.items():
            durations = tuple(span.duration_s for span in spans if span.name == name)
            assert timing.count == len(durations)
            assert timing.samples == durations
        assert report.stage_timings["capture"].count > 0
        assert check_report(report) == []

    @pytest.mark.parametrize("scheme", ["Draco-Oracle", "MeshReduce"])
    def test_baseline_frames_close_with_their_fate(self, session_workload, scheme):
        """A baseline replay opens one root per frame record and closes it
        with the frame's fate, ``rendered`` exactly when the record is;
        the frame's wall-clock stage spans parent under that root."""
        config, scene, user = session_workload
        report = run_scheme(
            dataclasses.replace(config, scheme=scheme), scene, user, trace_1(duration_s=5), 8
        )
        spans = report.trace.spans()
        roots = {span.trace_id: span for span in spans if span.category == "frame"}
        assert set(roots) == {frame.sequence for frame in report.frames}
        for frame in report.frames:
            root = roots[frame.sequence]
            assert root.end_s is not None and root.status != STATUS_INCOMPLETE
            assert (root.status == "rendered") == frame.rendered, frame.sequence
        assert any(frame.rendered for frame in report.frames)
        for span in spans:
            if span.category == "stage" and span.clock == CLOCK_WALL:
                assert span.parent_id == roots[span.trace_id].span_id, span.name
        assert None not in {row["status"] for row in report.frame_timeline().values()}


class TestQualityJobSpans:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_pointssim_span_per_scored_frame(self, session_workload, jobs):
        """Each sampled frame's scoring job, run on the lane's scoring
        thread (``jobs`` is accepted and chooses nothing), leaves one
        closed span on the session tracer, in that frame's trace, under
        the ``quality`` stage span that submitted it."""
        config, scene, user = session_workload
        traced = LiVoSession(dataclasses.replace(config, jobs=jobs)).run(
            scene, user, trace_1(duration_s=5), FRAMES
        )
        spans = traced.trace.spans()
        assert len({span.span_id for span in spans}) == len(spans)
        stages = {s.span_id: s for s in spans if s.name == "quality"}
        jobs_spans = [s for s in spans if s.name == "quality:pointssim"]
        assert stages and len(jobs_spans) == len(stages)
        assert {s.parent_id for s in jobs_spans} == set(stages)
        for span in jobs_spans:
            assert span.category == "worker"
            assert span.trace_id == stages[span.parent_id].trace_id
            assert span.end_s is not None and span.status == "ok"
        scored = {f.sequence for f in traced.frames if f.pssim_geometry is not None}
        assert scored and scored <= {s.trace_id for s in jobs_spans}


class TestMttrOpenEpisode:
    """Satellite contract: an outage that outlives the session leaves
    an *open* degradation episode -- it must not count as a recovery
    nor deflate MTTR toward 'recovered instantly'."""

    @pytest.fixture(scope="class")
    def stuck_report(self, session_workload):
        config, scene, user = session_workload
        plan = FaultPlan(seed=11, link_outages=(LinkOutage(0.4, 30.0),))
        return LiVoSession(config).run(
            scene, user, trace_1(duration_s=5), 30, fault_plan=plan
        )

    def test_open_episode_is_not_a_recovery(self, stuck_report):
        episodes = stuck_report.degradation_episodes()
        assert len(episodes) == 1
        start, end = episodes[0]
        assert end is None, "outage outlived the session: episode must stay open"
        counts = stuck_report.fault_counts()
        assert counts.get("degrade_step", 0) >= 1
        assert counts.get("recover_step", 0) == 0

    def test_mttr_is_nan_not_zero(self, stuck_report):
        assert math.isnan(stuck_report.mttr_s)
        summary = summarize_resilience([stuck_report], sessions_attempted=1)
        assert math.isnan(summary.mttr_s)

    def test_mttr_helper_semantics(self):
        assert _mttr([], open_episodes=0) == 0.0  # never degraded
        assert math.isnan(_mttr([], open_episodes=2))  # never recovered
        # Completed episodes average; the open one is excluded, not
        # counted as a zero-length recovery.
        assert _mttr([1.0, 3.0], open_episodes=1) == pytest.approx(2.0)

    def test_clean_session_mttr_zero(self, traced_pair):
        plain, _ = traced_pair
        if plain.degradation_episodes():
            pytest.skip("clean workload unexpectedly degraded")
        assert plain.mttr_s == 0.0


class TestLatencyBreakdownMeasuredZero:
    """Satellite contract: a measured 0.0 ms (or sub-ms) transmission
    latency is a legal measurement and must be honored; only None and
    NaN mean 'unmeasured' and fall back to the Table 6 model."""

    def test_zero_ms_is_a_measurement(self):
        breakdown = LatencyBreakdown("LiVo", LIVO_STAGES, measured_transmission_ms=0.0)
        assert breakdown.transmission_ms == 0.0
        assert breakdown.end_to_end_ms == pytest.approx(
            breakdown.sender_ms + breakdown.receiver_ms + LIVO_STAGES.rendering
        )

    def test_sub_millisecond_is_honored(self):
        breakdown = LatencyBreakdown("LiVo", LIVO_STAGES, measured_transmission_ms=0.4)
        assert breakdown.transmission_ms == 0.4

    def test_none_falls_back_to_model(self):
        breakdown = LatencyBreakdown("LiVo", LIVO_STAGES)
        assert breakdown.transmission_ms == LIVO_STAGES.transmission

    def test_nan_falls_back_to_model(self):
        breakdown = LatencyBreakdown(
            "LiVo", LIVO_STAGES, measured_transmission_ms=float("nan")
        )
        assert breakdown.transmission_ms == LIVO_STAGES.transmission
        rows = dict(breakdown.rows())
        assert rows["transmission"] == LIVO_STAGES.transmission
