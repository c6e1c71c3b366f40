"""The RGB-D capture rig: N calibrated cameras + 30 fps capture clock.

Models the paper's deployment: "an array of off-the-shelf RGB-D cameras
encircling a scene" (section 3.1), frame-synchronized (Kinect sync cable,
footnote 1) and one-shot calibrated into a common world frame (Zhang's
method).  Our cameras are calibrated exactly by construction; the rig
exposes the same per-interval capture of N synchronized frames.

A long-lived capture goes through
:class:`repro.perf.capture.CachedFrameSource`, which keeps each
camera's projection cache across frames; :meth:`CaptureRig.capture` is
the same render with fresh caches, for one-off captures.
"""

from __future__ import annotations

from repro.capture.renderer import ProjectionCache, render_frame
from repro.capture.rgbd import MultiViewFrame
from repro.capture.scene import Scene
from repro.geometry.camera import CameraIntrinsics, RGBDCamera, ring_of_cameras

__all__ = ["CaptureRig", "default_rig", "FPS", "FRAME_INTERVAL_S"]

# The capture clock (sections 3.1/4.1), re-exported by repro.core.config.
# ``s / FPS`` and ``s * FRAME_INTERVAL_S`` differ in the last ulp for
# some ``s`` (23 is the first): each call site keeps the form it had.
FPS = 30.0
FRAME_INTERVAL_S = 1.0 / FPS

# The default rig's ring: 2.4 m from the scene's axis, 1.4 m up.
RING_RADIUS_M = 2.4
RING_HEIGHT_M = 1.4


class CaptureRig:
    """N synchronized RGB-D cameras capturing a scene at the paper's ``FPS``."""

    frame_interval_s = FRAME_INTERVAL_S

    def __init__(self, cameras: list[RGBDCamera]) -> None:
        if not cameras:
            raise ValueError("a rig needs at least one camera")
        self.cameras = list(cameras)

    @property
    def num_cameras(self) -> int:
        """Number of cameras in the rig."""
        return len(self.cameras)

    def capture(self, scene: Scene, sequence: int) -> MultiViewFrame:
        """Capture one synchronized multi-view frame of ``scene``.

        Renders through :func:`~repro.capture.renderer.render_frame`
        with fresh per-camera caches, so the frame is byte-identical to
        a :class:`~repro.perf.capture.CachedFrameSource` capture of the
        same scene and sequence.
        """
        timestamp = sequence * self.frame_interval_s
        caches = [ProjectionCache(camera) for camera in self.cameras]
        return render_frame(caches, scene.sample_batches(timestamp), sequence, timestamp)


def default_rig(
    num_cameras: int = 10,
    width: int = 80,
    height: int = 60,
) -> CaptureRig:
    """Ten-camera ring, mirroring the Panoptic dataset's Kinect v2 setup.

    Default per-camera resolution is scaled down (80x60 instead of
    512x424) so full end-to-end sessions run in seconds; every dimension
    scales linearly, and all benches document the scaling they apply.
    """
    intrinsics = CameraIntrinsics.from_fov(width, height, horizontal_fov_deg=75.0)
    cameras = ring_of_cameras(
        num_cameras=num_cameras,
        radius_m=RING_RADIUS_M,
        height_m=RING_HEIGHT_M,
        intrinsics=intrinsics,
    )
    return CaptureRig(cameras)
