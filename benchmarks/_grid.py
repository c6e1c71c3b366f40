"""The evaluation grid: every scheme on every workload, computed once.

Most of the paper's tables and figures aggregate the same underlying
runs: {LiVo, LiVo-NoCull, Draco-Oracle, MeshReduce} x 5 videos x
2 network traces x user traces.  This module runs that grid once per
benchmark session and caches the per-session summaries to
``benchmarks/results/grid.json`` so the individual table/figure benches
stay fast and mutually consistent.

Delete the cache file to force a rerun.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.capture.dataset import video_names, load_video
from repro.core.config import SessionConfig
from repro.core.session import run_scheme
from repro.core.stats import SessionReport
from repro.prediction.pose import user_traces_for_video
from repro.transport.traces import trace_1, trace_2

GRID_CACHE = Path(__file__).parent / "results" / "grid.json"

# Scaled-down workload: enough frames for rate control and the split to
# settle, small enough that the 80-session grid runs in minutes.
NUM_FRAMES = 36
USERS_PER_VIDEO = 2
SCHEME_NAMES = ("LiVo", "LiVo-NoCull", "Draco-Oracle", "MeshReduce")


def bench_config(scheme: str) -> SessionConfig:
    """The shared session configuration for grid runs."""
    return SessionConfig(
        num_cameras=8,
        camera_width=64,
        camera_height=48,
        scene_sample_budget=20_000,
        gop_size=15,
        quality_every=3,
        scheme=scheme,
    )


@dataclass
class GridCell:
    """Summary of one (scheme, video, trace, user) session."""

    scheme: str
    video: str
    network_trace: str
    user: int
    stall_rate: float
    mean_fps: float
    pssim_geometry_mean: float
    pssim_geometry_std: float
    pssim_color_mean: float
    pssim_color_std: float
    pssim_geometry_nostall: float
    pssim_color_nostall: float
    throughput_mbps: float
    utilization: float
    mean_capacity_mbps: float
    mean_split: float
    mean_culled_fraction: float


def _summarize(report: SessionReport, user: int) -> GridCell:
    geometry = report.pssim_geometry(stalls_as_zero=True)
    color = report.pssim_color(stalls_as_zero=True)
    return GridCell(
        scheme=report.scheme,
        video=report.video,
        network_trace=report.network_trace,
        user=user,
        stall_rate=report.stall_rate,
        mean_fps=report.mean_fps,
        pssim_geometry_mean=geometry[0],
        pssim_geometry_std=geometry[1],
        pssim_color_mean=color[0],
        pssim_color_std=color[1],
        pssim_geometry_nostall=report.pssim_geometry(stalls_as_zero=False)[0],
        pssim_color_nostall=report.pssim_color(stalls_as_zero=False)[0],
        throughput_mbps=report.throughput_mbps,
        utilization=report.utilization,
        mean_capacity_mbps=report.mean_capacity_mbps,
        mean_split=report.mean_split,
        mean_culled_fraction=report.mean_culled_fraction,
    )


def _run_one(scheme: str, video: str, trace_name: str, user: int) -> GridCell:
    config = bench_config(scheme)
    _, scene = load_video(video, sample_budget=config.scene_sample_budget)
    user_trace = user_traces_for_video(video, NUM_FRAMES + 10)[user]
    bandwidth = trace_1(duration_s=20) if trace_name == "trace-1" else trace_2(duration_s=20)
    report = run_scheme(config, scene, user_trace, bandwidth, NUM_FRAMES, video)
    return _summarize(report, user)


def run_evaluation_grid(force: bool = False) -> list[GridCell]:
    """All grid cells, from cache when available."""
    if GRID_CACHE.exists() and not force:
        rows = json.loads(GRID_CACHE.read_text())
        return [GridCell(**row) for row in rows]
    cells = []
    for video in video_names():
        for trace_name in ("trace-1", "trace-2"):
            for user in range(USERS_PER_VIDEO):
                for scheme in SCHEME_NAMES:
                    cell = _run_one(scheme, video, trace_name, user)
                    cells.append(cell)
                    print(
                        f"grid: {scheme:12s} {video:9s} {trace_name} u{user} "
                        f"fps={cell.mean_fps:5.1f} stalls={cell.stall_rate:5.1%} "
                        f"pssim_g={cell.pssim_geometry_mean:5.1f}"
                    )
    GRID_CACHE.parent.mkdir(exist_ok=True)
    GRID_CACHE.write_text(json.dumps([asdict(cell) for cell in cells], indent=1))
    return cells


def cells_for(
    cells: list[GridCell],
    scheme: str | None = None,
    video: str | None = None,
    network_trace: str | None = None,
) -> list[GridCell]:
    """Filter grid cells."""
    out = cells
    if scheme is not None:
        out = [c for c in out if c.scheme == scheme]
    if video is not None:
        out = [c for c in out if c.video == video]
    if network_trace is not None:
        out = [c for c in out if c.network_trace == network_trace]
    return out


def mean_over(cells: list[GridCell], attribute: str) -> float:
    """Mean of one attribute over a cell subset."""
    if not cells:
        return 0.0
    return sum(getattr(c, attribute) for c in cells) / len(cells)
