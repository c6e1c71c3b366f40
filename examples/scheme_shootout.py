#!/usr/bin/env python3
"""Scheme shootout: LiVo vs its baselines on the same workload.

Replays one video / user / bandwidth combination through all four
evaluation schemes -- LiVo, LiVo-NoCull, Draco-Oracle, and MeshReduce --
and prints a side-by-side comparison like the paper's section 4.3.

Run:  python examples/scheme_shootout.py [video] [trace]
      video in {band2, dance5, office1, pizza1, toddler4}
      trace in {trace-1, trace-2}
"""

import sys

from repro.capture.dataset import load_video, video_names
from repro.core import SessionConfig
from repro.core.session import run_scheme
from repro.prediction.pose import user_traces_for_video
from repro.transport.traces import trace_1, trace_2

NUM_FRAMES = 30
SCHEME_NAMES = ("LiVo", "LiVo-NoCull", "Draco-Oracle", "MeshReduce")


def main() -> None:
    video = sys.argv[1] if len(sys.argv) > 1 else "pizza1"
    trace_name = sys.argv[2] if len(sys.argv) > 2 else "trace-2"
    if video not in video_names():
        raise SystemExit(f"unknown video {video!r}; pick one of {video_names()}")

    spec, scene = load_video(video, sample_budget=20_000)
    user = user_traces_for_video(video, NUM_FRAMES + 10)[0]
    bandwidth = trace_1(duration_s=20) if trace_name == "trace-1" else trace_2(duration_s=20)

    print(f"workload: {video} / {user.name} / {trace_name}, {NUM_FRAMES} frames\n")
    reports = []
    for scheme in SCHEME_NAMES:
        print(f"running {scheme} ...")
        config = SessionConfig(
            num_cameras=8, camera_width=64, camera_height=48,
            scene_sample_budget=20_000, gop_size=15, scheme=scheme,
        )
        reports.append(run_scheme(config, scene, user, bandwidth, NUM_FRAMES, video))

    print()
    header = (
        f"{'Scheme':13s} {'fps':>6s} {'stalls':>8s} {'PSSIM g':>8s} "
        f"{'PSSIM c':>8s} {'tput Mbps':>10s} {'util':>6s}"
    )
    print(header)
    print("-" * len(header))
    for report in reports:
        geometry, _ = report.pssim_geometry()
        color, _ = report.pssim_color()
        print(
            f"{report.scheme:13s} {report.mean_fps:6.1f} {report.stall_rate:8.1%} "
            f"{geometry:8.1f} {color:8.1f} {report.throughput_mbps:10.2f} "
            f"{report.utilization:6.1%}"
        )


if __name__ == "__main__":
    main()
