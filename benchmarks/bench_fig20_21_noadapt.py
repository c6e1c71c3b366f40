"""Figures 20-21: LiVo-NoAdapt (fixed QP 22/14, Starline's values).

Paper: without bandwidth adaptation or culling, quality drops 30-41%
for geometry and 27-37% for color, with PSSIM falling below 60 -- the
fixed-quality encoder overruns the link whenever capacity dips, and the
resulting losses/stalls swamp the session.
"""

from conftest import write_result
from repro.capture.dataset import load_video
from repro.core.config import SessionConfig
from repro.core.session import LiVoSession
from repro.prediction.pose import user_traces_for_video
from repro.transport.traces import trace_2

NUM_FRAMES = 36


def _config(scheme: str) -> SessionConfig:
    return SessionConfig(
        num_cameras=8, camera_width=64, camera_height=48,
        scene_sample_budget=20_000, gop_size=15, quality_every=3, scheme=scheme,
    )


def test_fig20_21_noadapt_quality_drop(benchmark, results_dir):
    def build():
        rows = {}
        for video in ("band2", "office1"):
            _, scene = load_video(video, sample_budget=20_000)
            user = user_traces_for_video(video, NUM_FRAMES + 10)[0]
            bandwidth = trace_2(duration_s=20)
            livo = LiVoSession(_config("LiVo")).run(
                scene, user, bandwidth, NUM_FRAMES, video_name=video
            )
            noadapt = LiVoSession(_config("LiVo-NoAdapt")).run(
                scene, user, bandwidth, NUM_FRAMES, video_name=video
            )
            rows[video] = {
                "LiVo": (livo.pssim_geometry()[0], livo.pssim_color()[0],
                         livo.stall_rate),
                "LiVo-NoAdapt": (noadapt.pssim_geometry()[0],
                                 noadapt.pssim_color()[0], noadapt.stall_rate),
            }
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    lines = [f"{'Video':9s} {'Scheme':13s} {'geom':>7s} {'color':>7s} {'stalls':>8s}"]
    for video, row in rows.items():
        for scheme, (geometry, color, stalls) in row.items():
            lines.append(
                f"{video:9s} {scheme:13s} {geometry:7.1f} {color:7.1f} {stalls:8.1%}"
            )
    write_result("fig20_21_noadapt.txt", "\n".join(lines))

    for video, row in rows.items():
        livo_geometry = row["LiVo"][0]
        noadapt_geometry = row["LiVo-NoAdapt"][0]
        # Substantial drop without adaptation (paper: 30-41%).
        assert noadapt_geometry < 0.85 * livo_geometry, video
        # Fixed QP overruns the link: stalls explode.
        assert row["LiVo-NoAdapt"][2] > row["LiVo"][2], video
