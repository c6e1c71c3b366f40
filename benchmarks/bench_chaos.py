"""Chaos suite: hardened pipeline vs the brittle seed under faults.

Scenario ("outage-then-crunch"): a 5 s session where two cameras drop
out, a burst-loss window hits, one encode fails outright, one frame
pair arrives corrupted, the link suffers a full 1 s outage, and -- the
moment the outage lifts -- capacity collapses to 0.25 Mbps for 2 s
(below what the encoder floor needs at 30 fps, above what it needs at
15 fps).  Three builds replay the identical fault plan:

- **full**: hardening + degradation ladder (the shipped defaults);
- **no-ladder**: hardening only (frame-freeze, skip-not-crash encode,
  PLI recovery) with the stall watchdog disabled;
- **brittle**: ``resilience.enabled=False`` -- the seed's behavior,
  which crashes on the corrupted pair.

The ladder's win is structural: during the crunch the watchdog halves
the offered frame rate, so each surviving frame fits the collapsed
link and renders on time, while the no-ladder build keeps offering
30 fps, swamps the bottleneck queue, and freezes/stalls until capacity
returns.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.analysis.resilience import summarize_resilience  # noqa: E402
from repro.capture.dataset import load_video  # noqa: E402
from repro.core.config import SessionConfig  # noqa: E402
from repro.core.session import LiVoSession  # noqa: E402
from repro.faults.degradation import ResilienceConfig  # noqa: E402
from repro.faults.plan import (  # noqa: E402
    BurstLossWindow,
    CameraFault,
    EncoderFault,
    FaultPlan,
    FrameCorruption,
    LinkOutage,
)
from repro.prediction.pose import user_traces_for_video  # noqa: E402
from repro.transport.traces import BandwidthTrace  # noqa: E402

FRAMES = 150  # 5 s at 30 fps


def chaos_bench_plan() -> FaultPlan:
    """Every fault family, timed against the crunch trace below."""
    return FaultPlan(
        seed=7,
        camera_faults=(
            CameraFault(camera_id=1, start_s=0.5, end_s=1.2, mode="dropout"),
            CameraFault(camera_id=3, start_s=0.7, end_s=1.4, mode="dropout"),
        ),
        link_outages=(LinkOutage(start_s=1.5, end_s=2.5),),
        burst_loss=(
            BurstLossWindow(start_s=0.9, end_s=1.3, p_enter=0.05, p_exit=0.3),
        ),
        encoder_faults=(EncoderFault(sequence=20),),
        corrupted_frames=(FrameCorruption(sequence=26),),
    )


def crunch_trace() -> BandwidthTrace:
    """7 Mbps link collapsing to 0.25 Mbps for 2 s after the outage."""
    capacities = np.full(10, 7.0)
    capacities[5:9] = 0.25  # 2.5 s .. 4.5 s
    return BandwidthTrace(capacities, interval_s=0.5, name="outage-then-crunch")


def _timeline(report) -> str:
    """One char per frame: R rendered, z frozen, x skipped, E encode
    failure, . stalled."""
    chars = []
    for frame in report.frames:
        if frame.rendered:
            chars.append("R")
        elif frame.frozen:
            chars.append("z")
        elif frame.skipped:
            chars.append("x")
        elif frame.encode_failed:
            chars.append("E")
        else:
            chars.append(".")
    return "".join(chars)


def _run_three_builds(config, scene, user, trace_fn, plan, frames):
    """Replay the identical plan under full / no-ladder / brittle."""

    def run_build(resilience: ResilienceConfig):
        build = dataclasses.replace(config, resilience=resilience)
        try:
            return LiVoSession(build).run(
                scene, user, trace_fn(), frames, fault_plan=plan
            ), None
        except Exception as exc:  # the brittle build dies mid-session
            return None, exc

    full, _ = run_build(ResilienceConfig())
    no_ladder, _ = run_build(ResilienceConfig(ladder_enabled=False))
    brittle, crash = run_build(ResilienceConfig(enabled=False, ladder_enabled=False))
    return full, no_ladder, brittle, crash


def test_chaos_hardened_vs_seed(benchmark, results_dir):
    from conftest import write_result
    config = SessionConfig(
        num_cameras=6, camera_width=48, camera_height=36,
        scene_sample_budget=15000, gop_size=12, quality_every=6,
        trace_scale=1.0,
    )
    _, scene = load_video("office1", sample_budget=15000)
    user = user_traces_for_video("office1", FRAMES + 10)[0]
    plan = chaos_bench_plan()

    def run_build(resilience: ResilienceConfig):
        build = dataclasses.replace(config, resilience=resilience)
        try:
            return LiVoSession(build).run(
                scene, user, crunch_trace(), FRAMES, fault_plan=plan
            ), None
        except Exception as exc:  # the brittle build dies mid-session
            return None, exc

    def build():
        full, _ = run_build(ResilienceConfig())
        no_ladder, _ = run_build(ResilienceConfig(ladder_enabled=False))
        brittle, crash = run_build(
            ResilienceConfig(enabled=False, ladder_enabled=False)
        )
        return full, no_ladder, brittle, crash

    full, no_ladder, brittle, crash = benchmark(build)

    rows = []
    for name, report in (("full", full), ("no-ladder", no_ladder)):
        counts = report.fault_counts()
        rows.append(
            f"{name:10s} rendered={report.rendered_frames:3d}/{FRAMES}"
            f" stalls={100 * report.stall_rate:5.1f}%"
            f" frozen={report.frozen_frames:3d}"
            f" skipped={report.skipped_frames:3d}"
            f" survived={report.frames_survived_degraded:3d}"
            f" mttr={report.mttr_s:4.2f}s"
            f" degrade/recover={counts.get('degrade_step', 0)}"
            f"/{counts.get('recover_step', 0)}"
        )
    rows.append(
        f"{'brittle':10s} "
        + (
            f"CRASHED mid-session ({type(crash).__name__})"
            if brittle is None
            else f"rendered={brittle.rendered_frames:3d}/{FRAMES} (survived?!)"
        )
    )

    summary = summarize_resilience([full, no_ladder], sessions_attempted=3)
    lines = [
        "Chaos suite: identical fault plan + outage-then-crunch trace",
        "(2-camera dropout, burst loss, 1 s link outage, encode failure,",
        " corrupt frame pair; link collapses to 0.25 Mbps for 2 s)",
        "",
        *rows,
        "",
        f"crash-free rate: {100 * summary.crash_free_rate:.0f}% "
        f"({summary.num_sessions}/{summary.sessions_attempted} builds completed)",
        f"fault events (full build): {full.fault_counts()}",
        "",
        "timeline (R rendered, z frozen, x skipped, E encode-fail, . stalled)",
        f"full      {_timeline(full)}",
        f"no-ladder {_timeline(no_ladder)}",
    ]
    write_result("chaos_resilience.txt", "\n".join(lines))

    # The hardened session completes and reports structured events.
    assert full.num_frames == FRAMES
    counts = full.fault_counts()
    for category in ("camera_dropout", "link_outage", "encode_failure",
                     "degrade_step", "recover_step"):
        assert counts.get(category, 0) >= 1, category
    assert counts["camera_dropout"] == 2

    # Headline: the degradation ladder strictly wins on rendered frames.
    assert full.rendered_frames > no_ladder.rendered_frames
    assert full.stall_rate < no_ladder.stall_rate
    # The ladder engaged and fully recovered (completed episode => MTTR).
    assert full.mttr_s > 0.0
    assert full.frames[-1].degradation_level == 0

    # The seed-equivalent build does not survive this plan.
    assert brittle is None and crash is not None


# ----------------------------------------------------------------------
# Standalone smoke mode (CI): the same three-build comparison on a
# reduced rig, seeded and deterministic, no pytest required.
# ----------------------------------------------------------------------

SMOKE_FRAMES = 90  # 3 s at 30 fps


def smoke_plan() -> FaultPlan:
    """The full plan's fault families, compressed into 3 s."""
    return FaultPlan(
        seed=7,
        camera_faults=(
            CameraFault(camera_id=1, start_s=0.3, end_s=0.7, mode="dropout"),
        ),
        burst_loss=(
            BurstLossWindow(start_s=0.5, end_s=0.8, p_enter=0.05, p_exit=0.3),
        ),
        encoder_faults=(EncoderFault(sequence=8),),
        corrupted_frames=(FrameCorruption(sequence=12),),
    )


def smoke_trace() -> BandwidthTrace:
    """7 Mbps link collapsing to 0.25 Mbps from 1 s to session end.

    Same rig and floor-straddling crunch capacity as the full bench
    (0.25 Mbps fits the encoder floor at 15 fps but not 30 fps), with
    no recovery tail: the ladder's during-crunch advantage is what the
    smoke check pins, the full bench covers recovery.
    """
    capacities = np.full(6, 7.0)
    capacities[2:] = 0.25  # 1.0 s .. end
    return BandwidthTrace(capacities, interval_s=0.5, name="smoke-crunch")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced deterministic workload; exit 1 unless the ladder "
        "build beats the no-ladder build and the brittle build crashes",
    )
    args = parser.parse_args(argv)

    frames = SMOKE_FRAMES if args.smoke else FRAMES
    config = SessionConfig(
        num_cameras=6, camera_width=48, camera_height=36,
        scene_sample_budget=15000, gop_size=12, quality_every=6,
        trace_scale=1.0,
    )
    if args.smoke:
        budget, plan, trace_fn = 15000, smoke_plan(), smoke_trace
    else:
        budget, plan, trace_fn = 15000, chaos_bench_plan(), crunch_trace

    _, scene = load_video("office1", sample_budget=budget)
    user = user_traces_for_video("office1", frames + 10)[0]
    full, no_ladder, brittle, crash = _run_three_builds(
        config, scene, user, trace_fn, plan, frames
    )

    for name, report in (("full", full), ("no-ladder", no_ladder)):
        counts = report.fault_counts()
        print(
            f"{name:10s} rendered={report.rendered_frames:3d}/{frames}"
            f" stalls={100 * report.stall_rate:5.1f}%"
            f" frozen={report.frozen_frames:3d}"
            f" skipped={report.skipped_frames:3d}"
            f" degrade/recover={counts.get('degrade_step', 0)}"
            f"/{counts.get('recover_step', 0)}"
        )
    print(
        f"{'brittle':10s} "
        + (
            f"CRASHED mid-session ({type(crash).__name__})"
            if brittle is None
            else f"rendered={brittle.rendered_frames:3d}/{frames} (survived?!)"
        )
    )
    print("timeline (R rendered, z frozen, x skipped, E encode-fail, . stalled)")
    print(f"full      {_timeline(full)}")
    print(f"no-ladder {_timeline(no_ladder)}")

    failures = []
    if full.rendered_frames <= no_ladder.rendered_frames:
        failures.append(
            f"ladder build rendered {full.rendered_frames} <= "
            f"no-ladder {no_ladder.rendered_frames}"
        )
    if brittle is not None:
        failures.append("brittle (seed-equivalent) build survived the plan")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        "smoke OK: ladder beats no-ladder "
        f"({full.rendered_frames} > {no_ladder.rendered_frames} rendered), "
        "brittle build crashes"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
