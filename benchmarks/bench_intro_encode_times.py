"""Section 1's codec comparison: encode latency and rate adaptivity.

The introduction's quantitative claims:

- Draco: 25 ms for a 1 MB (single-person) cloud, >300 ms for a 10 MB
  full-scene frame -- linear in points, too slow for 30 fps full scenes;
- G-PCC: ~10 seconds per full-scene frame;
- V-PCC: ~8 minutes per full-scene frame (but directly rate-adaptive);
- Draco compresses the 10 MB frame to ~1.78 MB, while LiVo's 2D
  pipeline reaches ~0.66 MB by exploiting temporal redundancy.

This bench regenerates the latency table from the calibrated models and
measures the compression-ratio comparison on live data.
"""

from conftest import write_result
from _sender_lab import make_workload
from repro.compression.draco import DracoCodec, DracoConfig
from repro.compression.gpcc import GPCCCodec
from repro.compression.vpcc import VPCCCodec
from repro.core.config import HORIZON_S, SessionConfig
from repro.core.sender import LiVoSender
from repro.geometry.camera import unproject_views

SINGLE_PERSON_POINTS = 70_000      # ~1 MB at 15 B/point
FULL_SCENE_POINTS = 740_000        # ~10.6 MB


def test_intro_encode_time_claims(benchmark, results_dir):
    def build():
        draco = DracoCodec(DracoConfig(11, 7))
        gpcc = GPCCCodec(DracoConfig(11, 7))
        vpcc = VPCCCodec()
        return {
            "Draco 1MB": draco.estimate_encode_time_s(SINGLE_PERSON_POINTS),
            "Draco 10MB": draco.estimate_encode_time_s(FULL_SCENE_POINTS),
            "G-PCC 10MB": gpcc.estimate_encode_time_s(FULL_SCENE_POINTS),
            "V-PCC 10MB": vpcc.estimate_encode_time_s(FULL_SCENE_POINTS),
        }

    times = benchmark(build)
    lines = [f"{'Codec / frame':12s} {'model':>10s}   paper"]
    paper = {
        "Draco 1MB": "25 ms", "Draco 10MB": ">300 ms",
        "G-PCC 10MB": "~10 s", "V-PCC 10MB": "~8 min",
    }
    for name, seconds in times.items():
        lines.append(f"{name:12s} {seconds:9.2f}s   {paper[name]}")
    write_result("intro_encode_times.txt", "\n".join(lines))

    # The paper's anchors.
    assert 0.015 < times["Draco 1MB"] < 0.06
    assert times["Draco 10MB"] > 0.2
    assert 5.0 < times["G-PCC 10MB"] < 20.0
    assert 200.0 < times["V-PCC 10MB"] < 900.0
    # Only Draco fits a 15 fps deadline even for small clouds.
    assert times["Draco 1MB"] < 1 / 15 < times["G-PCC 10MB"]


def test_intro_compression_ratio_claim(benchmark, results_dir):
    """Draco ~1.78 MB vs LiVo ~0.66 MB on the 10 MB frame (scaled)."""
    rig, frames, _ = make_workload("band2", num_frames=8)

    def build():
        # Draco on the fused cloud of the last frame.
        views = frames[-1].views
        cloud = unproject_views(
            rig.cameras, [view.depth_mm for view in views], [view.color for view in views]
        )
        draco_bytes = DracoCodec(DracoConfig(11, 7)).encode(cloud).size_bytes

        # LiVo's 2D pipeline at matched quality-ish settings: steady-state
        # P-frame cost after temporal prediction warms up.
        config = SessionConfig(
            num_cameras=len(rig.cameras),
            camera_width=rig.cameras[0].intrinsics.width,
            camera_height=rig.cameras[0].intrinsics.height,
            gop_size=100,
        )
        sender = LiVoSender(rig.cameras, config)
        livo_bytes = 0
        for frame in frames:
            result = sender.process(frame, 12e6, HORIZON_S)
            livo_bytes = result.total_bytes
        return cloud.raw_size_bytes(), draco_bytes, livo_bytes

    raw, draco_bytes, livo_bytes = benchmark.pedantic(build, rounds=1, iterations=1)
    lines = [
        f"raw frame:          {raw:9d} bytes",
        f"Draco (intra 3D):   {draco_bytes:9d} bytes ({raw / draco_bytes:5.1f}x)",
        f"LiVo 2D (P-frame):  {livo_bytes:9d} bytes ({raw / livo_bytes:5.1f}x)",
    ]
    write_result("intro_compression_ratio.txt", "\n".join(lines))

    # The paper's efficiency ordering: temporal 2D coding beats
    # intra-only 3D coding (1.78 MB vs 0.66 MB per frame).
    assert livo_bytes < draco_bytes
    assert raw / livo_bytes > 5.0
