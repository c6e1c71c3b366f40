"""Configuration for LiVo sessions.

All the paper's design constants live here with their section
references, so benches and tests can cite a single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codec.frame import MAX_PLANE_SIDE
from repro.faults.degradation import ResilienceConfig
from repro.tiling.tiler import TileLayout
from repro.transport.link import LinkConfig

__all__ = ["SchemeFlags", "SessionConfig"]

# Paper Table 3: average full-scene raw frame size the evaluation videos
# have at full resolution; used to auto-scale bandwidth traces to our
# reduced-resolution frames so compression pressure is equivalent.
PAPER_FRAME_SIZE_BYTES = 10.8e6


@dataclass(frozen=True)
class SchemeFlags:
    """What a scheme variant enables.

    LiVo = culling + adaptation; LiVo-NoCull = adaptation only;
    LiVo-NoAdapt = neither, with Starline's fixed QPs (section 4.5:
    "We set fixed color QP to 22 and depth QP to 14").
    """

    culling: bool = True
    adaptation: bool = True
    fixed_color_qp: int = 22
    fixed_depth_qp: int = 14


@dataclass(frozen=True)
class SessionConfig:
    """Everything a replay session needs."""

    # Capture (section 3.1/4.1: 10 Kinect-class cameras at 30 fps).
    num_cameras: int = 10
    camera_width: int = 80
    camera_height: int = 60
    fps: float = 30.0
    scene_sample_budget: int = 60_000

    # Scheme variant.
    scheme: SchemeFlags = field(default_factory=SchemeFlags)

    # Bandwidth splitting (section 3.3).
    split_initial: float = 0.7
    split_min: float = 0.5        # "the lower limit ensures depth always
    split_max: float = 0.9        #  gets more bandwidth than color"
    split_step: float = 0.005     # delta, "empirically chosen"
    split_epsilon: float = 0.5    # RMSE balance threshold (8-bit units)
    rmse_every_k: int = 3         # "computing RMSE every k frames (k = 3)"

    # Depth (section 3.2).
    max_depth_mm: int = 6000

    # Culling (section 3.4).
    guard_band_m: float = 0.20    # "an epsilon of 20 cm ... sweet-spot"
    pose_feedback_lag_frames: int = 3

    # Codec.
    gop_size: int = 30
    codec_search_range: int = 1

    # Transport (appendix A.1).
    jitter_target_s: float = 0.1  # "we use 100 ms"
    link: LinkConfig = field(default_factory=LinkConfig)
    playout_delay_s: float = 0.25  # end-to-end budget, 200-300 ms target

    # Receiver rendering (appendix A.1).
    render_voxel_m: float = 0.03

    # Fault handling + graceful degradation (chaos suite; see
    # DESIGN.md "Fault model & degradation ladder").
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)

    # Runtime (see DESIGN.md section 8).
    # ``jobs`` > 1 scores PointSSIM on that many threads (the only work
    # that leaves the session thread); ``executor`` can pin the
    # substrate (auto = serial at jobs 1, threads above / serial /
    # thread).
    jobs: int = 1
    executor: str = "auto"

    # PointSSIM scoring: ``quality_max_points`` enables the
    # *approximate* subsample mode (deterministic, seeded); None keeps
    # scoring exact.
    quality_max_points: int | None = None

    # Observability (repro.obs; see DESIGN.md section 10).  Off by
    # default: an untraced session's report is byte-identical to one
    # from a build without the obs layer.  When on, the session records
    # one sim-clock root span per frame with stage/kernel/worker/
    # transport/render spans beneath it (``--trace`` exports them).
    trace: bool = False

    # Evaluation.
    quality_every: int = 3        # PointSSIM every Nth rendered frame
    trace_scale: float | None = None  # None = auto from raw frame size
    # Our pure-Python block codec needs roughly this factor more bits
    # than production H.265 for equal distortion; the auto trace scale is
    # multiplied by it so compression *pressure* matches the paper's
    # H.265 setting.  Ratios (utilization, relative quality) are
    # unaffected.  Documented in DESIGN.md.
    codec_efficiency_compensation: float = 2.5

    def __post_init__(self) -> None:
        if not 0.0 < self.split_min < self.split_max <= 1.0:
            raise ValueError("require 0 < split_min < split_max <= 1")
        if not self.split_min <= self.split_initial <= self.split_max:
            raise ValueError("split_initial must lie within the split bounds")
        if self.split_step <= 0:
            raise ValueError("split_step must be positive")
        if self.rmse_every_k < 1:
            raise ValueError("rmse_every_k must be at least 1")
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        for name in (
            "num_cameras", "camera_width", "camera_height",
            "max_depth_mm", "render_voxel_m", "playout_delay_s",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        layout = TileLayout.for_cameras(self.num_cameras, self.camera_height, self.camera_width)
        if max(layout.frame_height, layout.frame_width) > MAX_PLANE_SIDE:
            raise ValueError(
                f"{self.num_cameras} cameras of {self.camera_width}x{self.camera_height} tile "
                f"to a {layout.frame_height}x{layout.frame_width} plane; a frame header "
                f"holds at most {MAX_PLANE_SIDE} per side"
            )
        for name in ("guard_band_m", "pose_feedback_lag_frames", "jitter_target_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.executor not in ("auto", "serial", "thread"):
            raise ValueError("executor must be one of auto/serial/thread")
        if self.quality_max_points is not None and self.quality_max_points < 1:
            raise ValueError("quality_max_points must be at least 1 (or None)")
        if self.quality_every < 1:
            raise ValueError("quality_every must be at least 1")

    @property
    def frame_interval_s(self) -> float:
        """The inter-frame interval (1/30 s at 30 fps)."""
        return 1.0 / self.fps
