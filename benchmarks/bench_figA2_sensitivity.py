"""Figure A.2: depth vs color bitrate sensitivity.

Paper: fixing one stream's bitrate and sweeping the other shows depth
quality improving steeply with bitrate before flattening, while color
quality barely moves -- and depth needs roughly 7x more bitrate per
point before saturating.  This asymmetry justifies the split design.
"""

from conftest import write_result
from _sender_lab import make_workload, run_static_split

# Sweep expressed as per-frame byte budgets with an extreme split so
# one stream's rate is pinned while the other's varies.
DEPTH_BUDGETS = (3_000, 6_000, 12_000, 24_000, 48_000)
COLOR_BUDGETS = (800, 1_600, 3_200, 6_400, 12_800)


def test_figA2_depth_color_sensitivity(benchmark, results_dir):
    rig, frames, user = make_workload("band2", num_frames=5)
    num_points = frames[-1].total_points()

    def build():
        depth_rows = []
        for budget in DEPTH_BUDGETS:
            # Fixed generous color rate; depth gets `budget`.
            total = budget + 12_000
            run = run_static_split(rig, frames, user, total, budget / total)
            bits_per_point = run.depth_bytes * 8.0 / num_points
            depth_rows.append((bits_per_point, run.pssim.geometry))
        color_rows = []
        for budget in COLOR_BUDGETS:
            total = budget + 24_000
            run = run_static_split(rig, frames, user, total, 24_000 / total)
            bits_per_point = run.color_bytes * 8.0 / num_points
            color_rows.append((bits_per_point, run.pssim.color))
        return depth_rows, color_rows

    depth_rows, color_rows = benchmark.pedantic(build, rounds=1, iterations=1)
    lines = ["depth sweep (bits/point -> PSSIM geometry)"]
    for bits, score in depth_rows:
        lines.append(f"  {bits:7.2f} -> {score:6.1f}")
    lines.append("color sweep (bits/point -> PSSIM color)")
    for bits, score in color_rows:
        lines.append(f"  {bits:7.2f} -> {score:6.1f}")
    write_result("figA2_sensitivity.txt", "\n".join(lines))

    depth_scores = [score for _, score in depth_rows]
    color_scores = [score for _, score in color_rows]
    # Depth quality rises steeply with rate, then flattens.
    assert depth_scores[-1] > depth_scores[0] + 5.0
    early_gain = depth_scores[2] - depth_scores[0]
    late_gain = depth_scores[-1] - depth_scores[2]
    assert early_gain > late_gain
    # Color quality varies far less over its sweep.
    assert (max(color_scores) - min(color_scores)) < (
        max(depth_scores) - min(depth_scores)
    )
    # Depth consumes several times more bits per point at saturation.
    depth_saturation_bits = depth_rows[-2][0]
    color_saturation_bits = color_rows[-2][0]
    assert depth_saturation_bits > 3.0 * color_saturation_bits
