#!/usr/bin/env python3
"""Quickstart: one LiVo conferencing session, end to end.

Runs a short replay of the *band2* evaluation video through the full
LiVo pipeline -- synthetic 8-camera capture, frustum-predictive culling,
tiling, rate-adaptive 2D encoding with dynamic bandwidth splitting,
WebRTC-like transport over an emulated broadband trace, and receiver
reconstruction -- then prints the session report.

Run:  python examples/quickstart.py
"""

from repro.capture.dataset import load_video
from repro.core import LiVoSession, SessionConfig
from repro.prediction.pose import user_traces_for_video
from repro.transport.traces import trace_1

NUM_FRAMES = 30  # one second of conferencing


def main() -> None:
    # 1. Pick an evaluation video (Table 3 of the paper) and build its
    #    procedural scene.
    spec, scene = load_video("band2", sample_budget=20_000)
    print(f"video: {spec.name} ({spec.description}), {spec.paper_objects} objects")

    # 2. A viewer trace: the receiver's headset poses, one per frame.
    user_trace = user_traces_for_video("band2", NUM_FRAMES + 10)[0]

    # 3. A bandwidth trace (Table 4's trace-1: ~217 Mbps broadband).
    bandwidth = trace_1(duration_s=20)

    # 4. Run the session.  SessionConfig carries what a caller varies
    #    (rig, scheme, GOP); the paper's fixed design constants (split
    #    bounds, guard band, jitter target, ...) live beside it as
    #    repro.core.config module constants.
    config = SessionConfig(
        num_cameras=8,
        camera_width=64,
        camera_height=48,
        scene_sample_budget=20_000,
        gop_size=15,
    )
    report = LiVoSession(config).run(
        scene, user_trace, bandwidth, NUM_FRAMES, video_name=spec.name
    )

    # 5. Inspect the outcome.
    print(report.summary())
    geometry_mean, geometry_std = report.pssim_geometry()
    print(f"PSSIM geometry: {geometry_mean:.1f} (std {geometry_std:.1f})")
    print(f"mean depth/color split: {report.mean_split:.3f}")
    print(f"fraction of points kept by culling: {report.mean_culled_fraction:.2f}")
    print(f"link utilization: {report.utilization:.1%}")


if __name__ == "__main__":
    main()
