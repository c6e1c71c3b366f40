"""Ablation: multi-way fan-out -- unicast vs shared vs SFU forwarding.

The paper leaves multi-way conferencing to future work but points at
"optimizations across receivers from a single sender" (section 3.1).
This ablation quantifies that optimization: uplink bytes and encoder
invocations versus receiver count for the three strategies, plus a
quality-parity check that the SFU's per-receiver forwarded content is
byte-identical pre-codec to what unicast would have sent (receiver
frustum is a subset of the union, so re-culling the union-culled frame
equals culling the original) -- same content, same PointSSIM, at the
shared stream's uplink cost.
"""

import numpy as np

from conftest import write_result
from repro.core.config import FPS, HORIZON_S, SessionConfig
from repro.geometry.camera import unproject_views
from repro.geometry.pointcloud import PointCloud
from repro.metrics.pointssim import pointssim_batch
from repro.prediction.culling import cull_views
from repro.sfu.room import Room

RECEIVER_COUNTS = (1, 2, 4)
NUM_FRAMES = 8
TARGET_BPS = 8e6
PSSIM_MAX_POINTS = 1500


def test_ablation_multiway_fanout(benchmark, results_dir):
    config = SessionConfig(
        num_cameras=8, camera_width=64, camera_height=48,
        scene_sample_budget=20_000, gop_size=8,
    )
    room = Room(config, "band2", NUM_FRAMES + 10)
    rig = room.source.rig

    def seated(party, num_receivers: int):
        for index in range(num_receivers):
            party.join(f"r{index}", room.pose_trace(index))
        return party

    def run(party, num_receivers: int) -> tuple[float, int]:
        seated(party, num_receivers)
        for sequence in range(NUM_FRAMES):
            party.tick(room.source.capture(sequence), sequence / FPS, TARGET_BPS, HORIZON_S)
        return party.uplink_bytes / NUM_FRAMES, party.encoder_runs // NUM_FRAMES

    def cloud_of(multiview) -> PointCloud:
        views = multiview.views
        return unproject_views(
            rig.cameras, [view.depth_mm for view in views], [view.color for view in views]
        )

    def forwarded_views(sfu, tick) -> dict:
        """Each receiver's share of the frame's union stream: the union
        culled to the node's predicted frustum for that receiver, or the
        whole union while its predictor is cold."""
        union = tick.uplink.culled_multiview
        frustums = sfu.node.predicted_frustums(HORIZON_S)
        return {
            name: union if name not in frustums
            else cull_views(union, rig.cameras, frustums[name])
            for name in sfu.receiver_names
        }

    def run_sfu_paired(num_receivers: int) -> dict:
        """SFU and unicast in lockstep: bytes, plus per-receiver parity
        of the SFU's forwarded content against the stream unicast would
        have encoded for that receiver."""
        sfu = seated(room.conference(), num_receivers)
        unicast = seated(room.unicast(), num_receivers)
        names = sfu.receiver_names
        pssim_sfu: list[float] = []
        pssim_unicast: list[float] = []
        for sequence in range(NUM_FRAMES):
            frame = room.source.capture(sequence)
            forwards = forwarded_views(
                sfu, sfu.tick(frame, sequence / FPS, TARGET_BPS, HORIZON_S)
            )
            unicast_results = unicast.tick(frame, sequence / FPS, TARGET_BPS, HORIZON_S)
            for name in names:
                forwarded = forwards[name]
                reference = unicast_results[name].culled_multiview
                for sfu_view, uni_view in zip(forwarded.views, reference.views):
                    assert np.array_equal(sfu_view.color, uni_view.color)
                    assert np.array_equal(sfu_view.depth_mm, uni_view.depth_mm)
            if sequence == NUM_FRAMES - 1:
                # Pre-codec quality of each receiver's content against
                # the full capture (subsampled, seeded: deterministic).
                full = cloud_of(frame)
                # One batched pass: every receiver scores against the
                # same full capture, so the shared reference's KD/
                # feature build happens once instead of 2R times
                # (float-identical to the per-receiver loop).
                pairs = []
                for name in names:
                    pairs.append((full, cloud_of(forwards[name])))
                    pairs.append(
                        (full, cloud_of(unicast_results[name].culled_multiview))
                    )
                scores = pointssim_batch(pairs, max_points=PSSIM_MAX_POINTS)
                pssim_sfu.extend(s.geometry for s in scores[0::2])
                pssim_unicast.extend(s.geometry for s in scores[1::2])
        return {
            "bytes_per_frame": sfu.uplink_bytes / NUM_FRAMES,
            "encoder_runs": sfu.encoder_runs // NUM_FRAMES,
            "pssim": float(np.mean(pssim_sfu)),
            "pssim_unicast": float(np.mean(pssim_unicast)),
        }

    def build():
        table = {}
        for count in RECEIVER_COUNTS:
            table[count] = {
                "unicast": run(room.unicast(), count),
                "shared": run(room.conference(), count),
                "sfu": run_sfu_paired(count),
            }
        return table

    table = benchmark.pedantic(build, rounds=1, iterations=1)
    lines = [
        f"{'receivers':>9s} {'unicast B/frame':>16s} {'enc':>4s} "
        f"{'shared B/frame':>15s} {'enc':>4s} "
        f"{'sfu B/frame':>12s} {'enc':>4s} {'sfu PSSIM':>10s} {'uni PSSIM':>10s}"
    ]
    for count, row in table.items():
        lines.append(
            f"{count:9d} {row['unicast'][0]:16.0f} {row['unicast'][1]:4d} "
            f"{row['shared'][0]:15.0f} {row['shared'][1]:4d} "
            f"{row['sfu']['bytes_per_frame']:12.0f} {row['sfu']['encoder_runs']:4d} "
            f"{row['sfu']['pssim']:10.2f} {row['sfu']['pssim_unicast']:10.2f}"
        )
    write_result("ablation_multiway.txt", "\n".join(lines))

    # Unicast cost grows linearly with receivers; shared stays flat.
    unicast_growth = table[4]["unicast"][0] / table[1]["unicast"][0]
    shared_growth = table[4]["shared"][0] / table[1]["shared"][0]
    assert unicast_growth > 2.5
    assert shared_growth < 1.8
    # Shared and SFU always use exactly one encoder pair.
    for count in RECEIVER_COUNTS:
        assert table[count]["shared"][1] == 2
        assert table[count]["sfu"]["encoder_runs"] == 2
        assert table[count]["unicast"][1] == 2 * count
    # With several receivers, the shared stream is the cheaper uplink.
    assert table[4]["shared"][0] < table[4]["unicast"][0]
    # The SFU's uplink IS the shared stream: it beats unicast at any
    # multi-receiver count, at per-receiver content that is byte-equal
    # pre-codec to unicast's (asserted view-by-view above), i.e. at
    # equal-or-better mean PSSIM.
    for count in RECEIVER_COUNTS[1:]:
        assert table[count]["sfu"]["bytes_per_frame"] < table[count]["unicast"][0]
    for count in RECEIVER_COUNTS:
        assert (
            table[count]["sfu"]["pssim"] >= table[count]["sfu"]["pssim_unicast"] - 1e-9
        )
