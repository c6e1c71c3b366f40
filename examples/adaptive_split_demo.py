#!/usr/bin/env python3
"""Bandwidth-splitting demo: watch LiVo balance depth against color.

Encodes a sequence at a fixed total budget and prints, per frame, the
sender-side depth/color RMSE estimates and the split controller's
decision -- the control loop of paper section 3.3 in action.  Halfway
through, the available bandwidth drops sharply so you can watch the
rate controllers and the split react.

Run:  python examples/adaptive_split_demo.py
"""

from repro.capture.dataset import load_video
from repro.capture.rig import default_rig
from repro.core.config import HORIZON_S, SessionConfig
from repro.core.sender import LiVoSender

NUM_FRAMES = 24
HIGH_RATE_BPS = 10e6
LOW_RATE_BPS = 2.5e6


def main() -> None:
    config = SessionConfig(
        num_cameras=8, camera_width=64, camera_height=48,
        scene_sample_budget=20_000, gop_size=12,
        rmse_every_k=1,      # estimate quality every frame for the demo
        split_step=0.02,     # time-compressed line search (demo-length run)
    )
    _, scene = load_video("band2", sample_budget=20_000)
    rig = default_rig(num_cameras=8, width=64, height=48)
    sender = LiVoSender(rig.cameras, config)

    print(f"{'frame':>5s} {'rate':>6s} {'split':>6s} {'depth RMSE':>11s} "
          f"{'color RMSE':>11s} {'depth B':>8s} {'color B':>8s}")
    for sequence in range(NUM_FRAMES):
        rate = HIGH_RATE_BPS if sequence < NUM_FRAMES // 2 else LOW_RATE_BPS
        frame = rig.capture(scene, sequence)
        result = sender.process(frame, rate, prediction_horizon_s=HORIZON_S)
        depth_rmse = f"{result.depth_rmse:11.1f}" if result.depth_rmse is not None else " " * 11
        color_rmse = f"{result.color_rmse:11.2f}" if result.color_rmse is not None else " " * 11
        print(
            f"{sequence:5d} {rate / 1e6:5.1f}M {result.split:6.3f} "
            f"{depth_rmse} {color_rmse} "
            f"{result.depth_frame.size_bytes:8d} {result.color_frame.size_bytes:8d}"
        )

    print(
        "\nThe split rises while depth error dominates color error and"
        "\nsettles once the two are balanced (section 3.3); when the rate"
        "\ndrops, frame sizes follow the new budget within a frame or two."
    )


if __name__ == "__main__":
    main()
