"""Ablation: 4:2:0 chroma subsampling on the color stream.

Production H.265 deployments encode chroma at half resolution.  This
ablation measures what the repository's codec gains from it at matched
QP: bytes drop noticeably while luma fidelity is untouched and chroma
error grows only slightly (human vision cares about luma -- the same
asymmetry LiVo exploits between depth and color).
"""

import numpy as np

from conftest import write_result
from _sender_lab import make_workload
from repro.codec.video import VideoCodecConfig, VideoDecoder, VideoEncoder
from repro.codec.yuv import rgb_to_ycbcr
from repro.tiling.tiler import TileLayout, Tiler

QP = 26
NUM_FRAMES = 6


def test_ablation_chroma_subsampling(benchmark, results_dir):
    rig, frames, _ = make_workload("band2", num_frames=NUM_FRAMES)
    intrinsics = rig.cameras[0].intrinsics
    layout = TileLayout.for_cameras(len(rig.cameras), intrinsics.height, intrinsics.width)
    tiler = Tiler(layout, is_color=True)

    def run(subsampling: bool):
        config = VideoCodecConfig(gop_size=NUM_FRAMES, chroma_subsampling=subsampling)
        encoder = VideoEncoder(config)
        decoder = VideoDecoder(config)
        total_bytes = 0
        luma_rmse = chroma_rmse = 0.0
        for frame in frames:
            tiled = tiler.compose([v.color for v in frame.views], frame.sequence)
            encoded, recon = encoder.encode(tiled, qp=QP)
            decoded = decoder.to_image(decoder.decode(encoded))
            np.testing.assert_array_equal(decoded, recon)
            total_bytes += encoded.size_bytes
            truth = rgb_to_ycbcr(tiled)
            approx = rgb_to_ycbcr(recon)
            luma_rmse = float(np.sqrt(((truth[..., 0] - approx[..., 0]) ** 2).mean()))
            chroma_rmse = float(np.sqrt(((truth[..., 1:] - approx[..., 1:]) ** 2).mean()))
        return total_bytes, luma_rmse, chroma_rmse

    def build():
        return {"4:4:4 (default)": run(False), "4:2:0": run(True)}

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    lines = [f"{'Mode':16s} {'bytes':>9s} {'luma RMSE':>10s} {'chroma RMSE':>12s}"]
    for name, (size, luma, chroma) in rows.items():
        lines.append(f"{name:16s} {size:9d} {luma:10.2f} {chroma:12.2f}")
    write_result("ablation_chroma.txt", "\n".join(lines))

    full = rows["4:4:4 (default)"]
    sub = rows["4:2:0"]
    # Subsampling shrinks the stream at matched QP...
    assert sub[0] < full[0]
    # ...keeps luma essentially unchanged...
    assert abs(sub[1] - full[1]) < 1.5
    # ...and costs bounded chroma fidelity.
    assert sub[2] < full[2] + 12.0
