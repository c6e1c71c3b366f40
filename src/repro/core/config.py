"""Configuration for LiVo sessions.

The paper's fixed design constants live here as module constants with
their section references, a single source of truth for benches and
tests; the dataclasses carry only what some caller varies.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import ClassVar

from repro.capture.rig import FPS, FRAME_INTERVAL_S
from repro.capture.scene import SAMPLE_BUDGET
from repro.codec.frame import MAX_PLANE_SIDE
from repro.core.schemes import SCHEMES
from repro.faults.degradation import ResilienceConfig
from repro.tiling.marker import MARKER_MIN_WIDTH
from repro.tiling.tiler import TileLayout
from repro.transport.link import LinkConfig

__all__ = ["SessionConfig"]

# Paper Table 3: average full-scene raw frame size the evaluation videos
# have at full resolution; used to auto-scale bandwidth traces to our
# reduced-resolution frames so compression pressure is equivalent.
PAPER_FRAME_SIZE_BYTES = 10.8e6

# Capture (section 3.1/4.1): FPS and FRAME_INTERVAL_S, imported above.
# Bandwidth splitting (section 3.3).
SPLIT_INITIAL = 0.7
SPLIT_MIN = 0.5       # "the lower limit ensures depth always
SPLIT_MAX = 0.9       #  gets more bandwidth than color"
SPLIT_EPSILON = 0.5   # RMSE balance threshold (8-bit units)

# Culling (section 3.4).
GUARD_BAND_M = 0.20   # "an epsilon of 20 cm ... sweet-spot"
POSE_FEEDBACK_LAG_FRAMES = 3
# The pose prediction horizon: 3 * (1 / 30.0) == 0.1 exactly.
HORIZON_S = POSE_FEEDBACK_LAG_FRAMES * FRAME_INTERVAL_S

# Transport (appendix A.1).
JITTER_TARGET_S = 0.1   # "we use 100 ms"
PLAYOUT_DELAY_S = 0.25  # end-to-end budget, 200-300 ms target

# Receiver rendering (appendix A.1).
RENDER_VOXEL_M = 0.03

# Our pure-Python block codec needs roughly this factor more bits than
# production H.265 for equal distortion; the auto trace scale is
# multiplied by it so compression *pressure* matches the paper's H.265
# setting.  Ratios (utilization, relative quality) are unaffected.
# Documented in DESIGN.md.
CODEC_EFFICIENCY_COMPENSATION = 2.5

# LiVo-NoAdapt runs Starline's fixed QPs (section 4.5: "We set fixed
# color QP to 22 and depth QP to 14").
FIXED_COLOR_QP = 22
FIXED_DEPTH_QP = 14


@dataclass(frozen=True)
class SessionConfig:
    """Everything a replay session needs."""

    # Capture rig; the frame rate is the paper's fixed ``FPS``.
    num_cameras: int = 10
    camera_width: int = 80
    camera_height: int = 60
    scene_sample_budget: int = SAMPLE_BUDGET
    fps: ClassVar[float] = FPS
    frame_interval_s: ClassVar[float] = FRAME_INTERVAL_S

    # The scheme, by name: a key of ``repro.core.schemes.SCHEMES``.
    scheme: str = "LiVo"

    # Bandwidth splitting (section 3.3; the rest is SPLIT_*).
    split_step: float = 0.005     # delta, "empirically chosen"
    rmse_every_k: int = 3         # "computing RMSE every k frames (k = 3)"

    # Codec.
    gop_size: int = 30

    # Transport (appendix A.1).
    link: LinkConfig = field(default_factory=LinkConfig)

    # Fault handling + graceful degradation (chaos suite; see
    # DESIGN.md "Fault model & degradation ladder").
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)

    # Runtime (see DESIGN.md section 8).  PointSSIM always scores on
    # the quality lane's one thread, so these choose nothing: they are
    # accepted and validated for callers that still pass them, never
    # stored (``config.jobs`` reads the class default).
    jobs: InitVar[int] = 1
    executor: InitVar[str] = "auto"

    # PointSSIM scoring: ``quality_max_points`` enables the
    # *approximate* subsample mode (deterministic, seeded); None keeps
    # scoring exact.
    quality_max_points: int | None = None

    # Evaluation.
    quality_every: int = 3        # PointSSIM every Nth rendered frame
    trace_scale: float | None = None  # None = auto from raw frame size

    def __post_init__(self, jobs: int, executor: str) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; one of {tuple(SCHEMES)}")
        if not 0 < self.split_step < math.inf:
            raise ValueError("split_step must be finite and positive")
        if self.rmse_every_k < 1:
            raise ValueError("rmse_every_k must be at least 1")
        if self.gop_size < 1:
            raise ValueError("gop_size must be at least 1")
        for name in ("num_cameras", "camera_width", "camera_height", "scene_sample_budget"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.num_cameras > MAX_PLANE_SIDE**2:
            raise ValueError(
                f"num_cameras={self.num_cameras} cannot tile into a frame "
                f"header's {MAX_PLANE_SIDE}x{MAX_PLANE_SIDE} plane"
            )
        layout = TileLayout.for_cameras(self.num_cameras, self.camera_height, self.camera_width)
        if max(layout.frame_height, layout.frame_width) > MAX_PLANE_SIDE:
            raise ValueError(
                f"{self.num_cameras} cameras of {self.camera_width}x{self.camera_height} tile "
                f"to a {layout.frame_height}x{layout.frame_width} plane; a frame header "
                f"holds at most {MAX_PLANE_SIDE} per side"
            )
        if layout.frame_width < MARKER_MIN_WIDTH:
            raise ValueError(
                f"{self.num_cameras} cameras of {self.camera_width}x{self.camera_height} tile "
                f"to a plane {layout.frame_width} px wide; the marker needs {MARKER_MIN_WIDTH}"
            )
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if executor not in ("auto", "serial", "thread"):
            raise ValueError("executor must be one of auto/serial/thread")
        if self.quality_max_points is not None and self.quality_max_points < 1:
            raise ValueError("quality_max_points must be at least 1 (or None)")
        if self.quality_every < 1:
            raise ValueError("quality_every must be at least 1")
        if self.trace_scale is not None and not 0 < self.trace_scale < math.inf:
            raise ValueError("trace_scale must be finite and positive (or None)")
