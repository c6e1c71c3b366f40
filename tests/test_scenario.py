"""Scenario engine tests: specs, the zoo, record/replay, invariants."""

import json

import pytest

from repro.core.stats import FaultEvent, FrameRecord, SessionReport
from repro.scenario.invariants import check_report
from repro.scenario.recorder import (
    SCHEMA_VERSION,
    artifact_records,
    canonical_dumps,
    write_artifact,
)
from repro.scenario.replay import (
    ArtifactError,
    diff_records,
    load_artifact,
    replay_artifact,
)
from repro.scenario.runner import run_scenario
from repro.scenario.spec import ChurnEvent, ScenarioSpec, TraceSegment, TraceSpec
from repro.scenario.zoo import SCENARIOS, get_scenario, scenario_names

# A deliberately tiny spec so record/replay tests stay fast.
TINY = ScenarioSpec(
    name="tiny-test",
    description="24-frame smoke spec for the recorder tests",
    trace=TraceSpec(segments=(TraceSegment(2.0, 2.5),), label="tiny"),
    frames=24,
    seed=7,
    quality_every=100,  # skip PointSSIM: irrelevant to artifact mechanics
)


# ----------------------------------------------------------------------
# Specs and traces
# ----------------------------------------------------------------------


class TestTraceSpec:
    def test_piecewise_build(self):
        spec = TraceSpec(
            segments=(TraceSegment(1.0, 2.0), TraceSegment(1.0, 4.0)),
            interval_s=0.5,
        )
        trace = spec.build(2.0)
        assert list(trace.capacities_mbps) == [2.0, 2.0, 4.0, 4.0]

    def test_ramp_segment(self):
        spec = TraceSpec(segments=(TraceSegment(1.0, 0.0, 4.0),), interval_s=0.25)
        trace = spec.build(1.0)
        assert list(trace.capacities_mbps) == [0.0, 1.0, 2.0, 3.0]

    def test_named_trace(self):
        trace = TraceSpec(named="trace-1").build(10.0)
        assert trace.duration_s >= 10.0

    def test_jitter_is_seeded(self):
        spec = TraceSpec(
            segments=(TraceSegment(1.0, 2.0),), jitter_sigma=0.1, seed=3
        )
        assert list(spec.build(1.0).capacities_mbps) == list(
            spec.build(1.0).capacities_mbps
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceSpec()  # neither segments nor named
        with pytest.raises(ValueError):
            TraceSegment(0.0, 1.0)
        with pytest.raises(ValueError):
            TraceSegment(1.0, -1.0)
        with pytest.raises(ValueError):
            TraceSpec(named="trace-9")


class TestScenarioSpec:
    def test_roundtrip(self):
        for spec in SCENARIOS.values():
            rebuilt = ScenarioSpec.from_dict(spec.to_dict())
            assert rebuilt == spec
            assert rebuilt.fingerprint() == spec.fingerprint()

    def test_fingerprint_tracks_content(self):
        from dataclasses import replace

        spec = get_scenario("clean-baseline")
        assert replace(spec, seed=spec.seed + 1).fingerprint() != spec.fingerprint()

    def test_seed_dithers_trace(self):
        from dataclasses import replace

        spec = get_scenario("clean-baseline")
        a = spec.build_trace().capacities_mbps
        b = replace(spec, seed=spec.seed + 1).build_trace().capacities_mbps
        assert (a != b).any()
        # ... but only slightly: character preserved.
        assert abs(a.mean() - b.mean()) < 0.1

    def test_churn_validation(self):
        with pytest.raises(ValueError, match="initial_peers"):
            ScenarioSpec(
                name="x", description="", kind="multiway",
                trace=TraceSpec(segments=(TraceSegment(1.0, 1.0),)),
            )
        with pytest.raises(ValueError, match="time-ordered"):
            ScenarioSpec(
                name="x", description="", kind="multiway",
                trace=TraceSpec(segments=(TraceSegment(1.0, 1.0),)),
                initial_peers=("a",),
                churn=(ChurnEvent(1.0, "join", "b"), ChurnEvent(0.5, "leave", "b")),
            )
        with pytest.raises(ValueError, match="only apply to multiway"):
            ScenarioSpec(
                name="x", description="",
                trace=TraceSpec(segments=(TraceSegment(1.0, 1.0),)),
                initial_peers=("a",),
            )
        with pytest.raises(ValueError):
            ChurnEvent(0.0, "rejoin", "a")

    @pytest.mark.parametrize(
        "peers,churn,message",
        [
            (("a", "a"), (), "duplicate peer 'a'"),
            (("a",), (ChurnEvent(1.0, "leave", "nobody"),), "leave 'nobody' at 1.0s"),
            (("a",), (ChurnEvent(0.5, "join", "a"),), "join 'a' at 0.5s"),
            (
                ("a", "b"),
                (ChurnEvent(0.2, "leave", "b"), ChurnEvent(0.4, "leave", "b")),
                "leave 'b' at 0.4s",
            ),
        ],
        ids=["duplicate-initial", "leave-of-stranger", "join-of-member", "leave-twice"],
    )
    def test_inconsistent_roster_rejected_before_any_frame(self, peers, churn, message):
        """The spec names the offending event; nothing reaches the runner."""
        fields = get_scenario("multiparty-churn").to_dict() | {
            "initial_peers": list(peers),
            "churn": [event.to_dict() for event in churn],
        }
        with pytest.raises(ValueError, match=message):
            ScenarioSpec.from_dict(fields)

    def test_rig_too_large_for_the_frame_header_rejected(self):
        """The spec inherits SessionConfig's check: a rig whose tiled
        plane no frame header can name fails at load, not mid-run."""
        fields = get_scenario("clean-baseline").to_dict() | {
            "num_cameras": 7, "camera_width": 10_000, "camera_height": 1,
        }
        with pytest.raises(ValueError, match="9x70000 plane"):
            ScenarioSpec.from_dict(fields)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_non_positive_sample_budget_rejected(self, budget):
        """A scene needs at least one point; the spec fails at load."""
        fields = get_scenario("clean-baseline").to_dict() | {"sample_budget": budget}
        with pytest.raises(ValueError, match="sample_budget"):
            ScenarioSpec.from_dict(fields)

    def test_rejoin_after_leave_is_a_consistent_roster(self):
        from dataclasses import replace

        spec = replace(
            get_scenario("multiparty-churn"),
            churn=(ChurnEvent(0.2, "leave", "bob"), ChurnEvent(0.4, "join", "bob")),
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec


class TestZoo:
    def test_at_least_eight_scenarios(self):
        assert len(SCENARIOS) >= 8

    def test_required_scenarios_present(self):
        names = scenario_names()
        assert "handoff-cellular-wifi" in names
        assert "satellite-outage" in names
        assert "multiparty-churn" in names

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("nope")

    def test_every_scenario_has_a_golden(self):
        from pathlib import Path

        goldens = Path(__file__).parent / "goldens"
        for name in scenario_names():
            assert (goldens / f"{name}.jsonl").exists(), name


# ----------------------------------------------------------------------
# Recording + replay
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("rec") / "tiny.jsonl"
    report = run_scenario(TINY)
    write_artifact(path, artifact_records(TINY, report))
    return path, report


class TestRecorder:
    def test_record_twice_byte_identical(self, tiny_run, tmp_path):
        path, report = tiny_run
        again = tmp_path / "again.jsonl"
        write_artifact(again, artifact_records(TINY, run_scenario(TINY)))
        assert path.read_bytes() == again.read_bytes()

    def test_artifact_structure(self, tiny_run):
        path, report = tiny_run
        records, checksum_ok = load_artifact(path)
        assert checksum_ok
        header = records[0]
        assert header["version"] == SCHEMA_VERSION
        assert header["scenario"] == "tiny-test"
        kinds = {record["kind"] for record in records}
        assert {"header", "frame", "snapshot", "report"} <= kinds
        frames = [r for r in records if r["kind"] == "frame"]
        assert len(frames) == TINY.frames
        assert "timeline" in frames[0]  # sim-clock slice rode along
        assert "stages" not in frames[0]["timeline"]  # wall clock excluded

    def test_canonical_dumps_handles_numpy_and_nan(self):
        import numpy as np

        line = canonical_dumps(
            {"a": np.int64(3), "b": np.float64(1.5), "c": float("nan")}
        )
        assert json.loads(line) == {"a": 3, "b": 1.5, "c": None}


class TestReplay:
    def test_replay_matches(self, tiny_run):
        path, _ = tiny_run
        diff, report = replay_artifact(path)
        assert diff.matches
        assert diff.compared_frames == TINY.frames
        assert check_report(report) == []

    def test_mutated_seed_names_first_divergent_frame(self, tiny_run, tmp_path):
        path, _ = tiny_run
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["spec"]["seed"] += 1
        lines[0] = canonical_dumps(header)
        mutated = tmp_path / "mutated.jsonl"
        mutated.write_text("\n".join(lines) + "\n")
        diff, _ = replay_artifact(mutated)
        assert not diff.matches
        assert diff.first_divergent_frame is not None
        assert "first divergent frame" in diff.format()

    def test_corrupted_record_detected(self, tiny_run, tmp_path):
        path, _ = tiny_run
        corrupted = tmp_path / "corrupted.jsonl"
        corrupted.write_text(
            path.read_text().replace('"rendered":true', '"rendered":false', 1)
        )
        diff, _ = replay_artifact(corrupted)
        assert not diff.matches
        kinds = {d.kind for d in diff.divergences}
        assert "checksum" in kinds  # edit broke the trailer
        assert diff.first_divergent_frame is not None

    def test_unparseable_artifact_raises(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        with pytest.raises(ArtifactError):
            load_artifact(bad)

    def test_wrong_version_rejected(self, tmp_path):
        bad = tmp_path / "v99.jsonl"
        bad.write_text(canonical_dumps({"kind": "header", "version": 99}) + "\n")
        with pytest.raises(ArtifactError, match="schema version"):
            load_artifact(bad)

    def test_diff_reports_missing_frames(self):
        golden = [{"kind": "frame", "sequence": 0, "rendered": True}]
        diff = diff_records(golden, [], scenario="x")
        assert not diff.matches
        assert diff.divergences[0].field == "presence"


class TestGoldenCorpus:
    def test_cheapest_golden_replays(self):
        from pathlib import Path

        golden = Path(__file__).parent / "goldens" / "multiparty-churn.jsonl"
        diff, report = replay_artifact(golden)
        assert diff.matches, diff.format()
        assert check_report(report) == []


# ----------------------------------------------------------------------
# Invariants
# ----------------------------------------------------------------------


def _report(frames, events=(), **kwargs) -> SessionReport:
    defaults = dict(
        scheme="LiVo", video="v", user_trace="u", network_trace="n",
        fps_target=30.0, duration_s=1.0,
    )
    defaults.update(kwargs)
    return SessionReport(frames=frames, fault_events=list(events), **defaults)


class TestInvariants:
    def test_clean_report_passes(self):
        frames = [
            FrameRecord(
                sequence=i, capture_time_s=i / 30.0, rendered=True, stalled=False,
                wire_bytes=10, delivery_time_s=i / 30.0 + 0.05,
            )
            for i in range(5)
        ]
        assert check_report(_report(frames)) == []

    def test_non_monotone_sequence_flagged(self):
        frames = [
            FrameRecord(sequence=1, capture_time_s=0.0, rendered=False, stalled=True),
            FrameRecord(sequence=1, capture_time_s=0.1, rendered=False, stalled=True),
        ]
        problems = check_report(_report(frames))
        assert any("strictly increasing" in p for p in problems)

    def test_zero_latency_loss_flagged(self):
        # Nothing delivered, yet a rendered frame claims no delivery time.
        frames = [
            FrameRecord(sequence=0, capture_time_s=0.0, rendered=True, stalled=False)
        ]
        problems = check_report(_report(frames))
        assert any("without a delivery time" in p for p in problems)

    def test_time_travel_flagged(self):
        frames = [
            FrameRecord(
                sequence=0, capture_time_s=1.0, rendered=True, stalled=False,
                delivery_time_s=0.5,
            )
        ]
        problems = check_report(_report(frames))
        assert any("time travel" in p for p in problems)

    def test_skipped_with_bytes_flagged(self):
        frames = [
            FrameRecord(
                sequence=0, capture_time_s=0.0, rendered=False, stalled=False,
                skipped=True, wire_bytes=100,
            )
        ]
        problems = check_report(_report(frames))
        assert any("skipped tick carries wire bytes" in p for p in problems)

    def test_ladder_jump_flagged(self):
        frames = [
            FrameRecord(sequence=0, capture_time_s=0.0, rendered=False, stalled=True)
        ]
        events = [
            FaultEvent(0.1, "degrade_step", "ladder -> coarse-voxel"),
        ]
        problems = check_report(_report(frames, events))
        assert any("jumped" in p for p in problems)

    def test_legal_ladder_walk_passes(self):
        frames = [
            FrameRecord(
                sequence=0, capture_time_s=0.0, rendered=False, stalled=True,
                degradation_level=1,
            ),
            FrameRecord(
                sequence=1, capture_time_s=0.1, rendered=False, stalled=True,
                degradation_level=0,
            ),
        ]
        events = [
            FaultEvent(0.0, "degrade_step", "ladder -> half-fps"),
            FaultEvent(0.1, "recover_step", "ladder -> normal", recovered=True),
        ]
        assert check_report(_report(frames, events)) == []


# ----------------------------------------------------------------------
# Runner + CLI
# ----------------------------------------------------------------------


class TestMultiwayRunner:
    def test_churn_emits_events_and_runs(self):
        spec = get_scenario("multiparty-churn")
        report = run_scenario(spec)
        counts = report.fault_counts()
        assert counts["peer_join"] == 2
        assert counts["peer_leave"] == 2
        assert report.num_frames == spec.frames
        assert report.scheme == "Multiway-shared"
        assert check_report(report) == []


class TestLadderMetricsInReport:
    def test_ladder_metrics_attached(self):
        report = run_scenario(get_scenario("clean-baseline"))
        registry = report.metrics
        assert registry is not None
        assert registry.gauge("ladder.level").value == 0.0
        names = registry.names()
        assert "ladder.time_at.normal_s" in names
        assert registry.gauge("ladder.time_at.normal_s").value > 0.0


class TestCli:
    def test_list_scenarios(self, capsys):
        from repro.cli import main

        assert main(["--list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "handoff-cellular-wifi" in out

    def test_usage_error(self, capsys):
        from repro.cli import main

        assert main(["--list-scenarios", "--run-zoo"]) == 2

    def test_unknown_scenario_exit_code(self, capsys):
        from repro.cli import main

        assert main(["--scenario", "nope"]) == 2

    def test_record_replay_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "cli.jsonl"
        assert main(
            ["--scenario", "clean-baseline", "--frames", "15", "--record", str(path)]
        ) == 0
        assert main(["--replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "replay OK" in out

    def test_replay_missing_file(self, capsys):
        from repro.cli import main

        assert main(["--replay", "/nonexistent/r.jsonl"]) == 2
