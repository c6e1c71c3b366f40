"""Pinhole RGB-D camera model.

Models the commodity RGB-D cameras the paper builds on (Azure Kinect DK,
Kinect v2, Intel RealSense): a pinhole intrinsic model at the *depth*
resolution (LiVo downsamples color to depth resolution before tiling,
paper section 3.2), plus a rigid extrinsic pose produced by one-shot
calibration (Zhang's method in the paper; exact by construction here).

The two key vectorized operations are:

- :func:`unproject_views` -- a rig's depth images -> one world point
  cloud (receiver-side reconstruction, appendix A.1);
- :meth:`RGBDCamera.project` -- world points -> pixel coordinates
  (sender-side synthetic capture and culling tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.pointcloud import PointCloud
from repro.geometry.transforms import invert_transform, look_at, transform_points

__all__ = ["CameraIntrinsics", "CameraExtrinsics", "RGBDCamera", "unproject_views"]

# Kinect-class depth cameras sense roughly 0.25 m to 6 m (paper section 3.2:
# "maximum depth range of 5-6 meters ... depth values can range 0-6000 at
# millimeter resolution").  The depth codec scales this range onto 16 bits.
MIN_DEPTH_M = 0.25
MAX_DEPTH_MM = 6000

# The point 1 m above the floor's center: a ring aims every camera at
# it, and viewers look around it.
SCENE_CENTER = (0.0, 1.0, 0.0)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics at depth resolution.

    Attributes:
        width: image width in pixels.
        height: image height in pixels.
        fx, fy: focal lengths in pixels.
        cx, cy: principal point in pixels.
    """

    width: int
    height: int
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")

    @staticmethod
    def from_fov(width: int, height: int, horizontal_fov_deg: float = 75.0) -> "CameraIntrinsics":
        """Derive intrinsics from a horizontal field of view.

        Kinect v2's depth camera has roughly a 70-75 degree horizontal FoV.
        """
        fx = (width / 2.0) / np.tan(np.deg2rad(horizontal_fov_deg) / 2.0)
        # Square pixels: fy = fx.
        return CameraIntrinsics(
            width=width,
            height=height,
            fx=float(fx),
            fy=float(fx),
            cx=width / 2.0,
            cy=height / 2.0,
        )

    @property
    def aspect(self) -> float:
        """Width/height aspect ratio."""
        return self.width / self.height

    def pixel_rays(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-pixel ray direction factors ``(x/z, y/z)`` as (H, W) arrays.

        Cached-free helper: for pixel (u, v) and depth z, the camera-local
        point is ``(z * xf[v, u], z * yf[v, u], z)``.
        """
        u = np.arange(self.width, dtype=np.float64)
        v = np.arange(self.height, dtype=np.float64)
        uu, vv = np.meshgrid(u, v)
        x_factor = (uu - self.cx) / self.fx
        y_factor = (vv - self.cy) / self.fy
        return x_factor, y_factor


@dataclass(frozen=True)
class CameraExtrinsics:
    """Camera pose: a camera-to-world rigid transform.

    A rig is calibrated once, so its inverse, ``world_to_camera`` (world
    coordinates -> camera-local), is computed here, once, as a read-only
    array every cull and projection reads.
    """

    camera_to_world: np.ndarray
    world_to_camera: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        matrix = np.asarray(self.camera_to_world, dtype=np.float64)
        if matrix.shape != (4, 4):
            raise ValueError(f"camera_to_world must be 4x4, got {matrix.shape}")
        object.__setattr__(self, "camera_to_world", matrix)
        inverse = invert_transform(matrix)
        inverse.setflags(write=False)
        object.__setattr__(self, "world_to_camera", inverse)

    @property
    def position(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return self.camera_to_world[:3, 3]


class RGBDCamera:
    """A calibrated RGB-D camera: intrinsics + extrinsics + depth range."""

    def __init__(
        self,
        intrinsics: CameraIntrinsics,
        extrinsics: CameraExtrinsics,
        camera_id: int = 0,
    ) -> None:
        self.min_depth_m = MIN_DEPTH_M
        self.max_depth_m = MAX_DEPTH_MM / 1000.0
        self.intrinsics = intrinsics
        self.extrinsics = extrinsics
        self.camera_id = int(camera_id)
        self._x_factor, self._y_factor = intrinsics.pixel_rays()

    @staticmethod
    def looking_at(
        eye: np.ndarray,
        target: np.ndarray,
        intrinsics: CameraIntrinsics,
        camera_id: int = 0,
    ) -> "RGBDCamera":
        """Convenience constructor: camera at ``eye`` aimed at ``target``."""
        return RGBDCamera(
            intrinsics, CameraExtrinsics(look_at(eye, target)), camera_id=camera_id
        )

    # ------------------------------------------------------------------
    # Projection / unprojection
    # ------------------------------------------------------------------

    def local_points(self, depth_mm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Camera-local 3D coordinates for *every* pixel of a depth image.

        Returns ``(points, valid)`` where ``points`` is ``(H, W, 3)`` float64
        and ``valid`` is the boolean mask of nonzero-depth pixels.  Used by
        LiVo's RGB-D culling, which tests pixels against the frustum in
        camera-local coordinates without building a point cloud
        (paper section 3.4).
        """
        depth_mm = np.asarray(depth_mm)
        z = depth_mm.astype(np.float64) / 1000.0
        points = np.stack([self._x_factor * z, self._y_factor * z, z], axis=-1)
        return points, depth_mm > 0

    def project(self, world_points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project world points into the image.

        Returns ``(u, v, z)`` arrays: integer pixel coordinates and
        camera-local depth in meters.  Points behind the camera or outside
        the image are *not* filtered here; callers apply their own masks.
        """
        local = transform_points(self.extrinsics.world_to_camera, world_points)
        z = local[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(z > 0, local[:, 0] / z * self.intrinsics.fx + self.intrinsics.cx, -1.0)
            v = np.where(z > 0, local[:, 1] / z * self.intrinsics.fy + self.intrinsics.cy, -1.0)
        return u, v, z

    def in_image(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Mask of pixel coordinates that land inside the image."""
        return (u >= 0) & (u < self.intrinsics.width) & (v >= 0) & (v < self.intrinsics.height)


def unproject_views(
    cameras: list[RGBDCamera],
    depth_images: list[np.ndarray],
    color_images: list[np.ndarray] | None = None,
) -> PointCloud:
    """Unproject many cameras' depth images into one merged world cloud.

    Receiver-side reconstruction (appendix A.1): each camera's valid
    (nonzero, uint16 millimeter) depth pixels become world points along
    its pixel rays, colored from the pixel-aligned ``(H, W, 3)`` uint8
    color image when one is given (black otherwise), as in the Azure
    Kinect SDK.  Each camera's points land in a preallocated slice of
    the output, in camera order.  The lists must have one entry per
    camera.
    """
    depth_images = [np.asarray(depth) for depth in depth_images]
    lengths = [len(cameras), len(depth_images)]
    if color_images is not None:
        lengths.append(len(color_images))
    if len(set(lengths)) != 1:
        raise ValueError(
            "one depth (and color) image per camera, got "
            + " / ".join(map(str, lengths))
        )
    for camera, depth in zip(cameras, depth_images):
        if depth.shape != (camera.intrinsics.height, camera.intrinsics.width):
            raise ValueError(
                f"depth shape {depth.shape} does not match intrinsics "
                f"({camera.intrinsics.height}, {camera.intrinsics.width})"
            )
    masks = [depth > 0 for depth in depth_images]
    counts = [int(mask.sum()) for mask in masks]
    positions = np.empty((sum(counts), 3))
    colors = np.zeros((sum(counts), 3), dtype=np.uint8)
    start = 0
    for index, (camera, depth, mask) in enumerate(zip(cameras, depth_images, masks)):
        stop = start + counts[index]
        z = depth[mask].astype(np.float64) / 1000.0
        x = camera._x_factor[mask] * z
        y = camera._y_factor[mask] * z
        local = np.stack([x, y, z], axis=1)
        positions[start:stop] = transform_points(
            camera.extrinsics.camera_to_world, local
        )
        if color_images is not None:
            colors[start:stop] = np.asarray(color_images[index])[mask]
        start = stop
    return PointCloud(positions, colors)


def ring_of_cameras(
    num_cameras: int,
    radius_m: float,
    height_m: float,
    intrinsics: CameraIntrinsics,
) -> list[RGBDCamera]:
    """Place ``num_cameras`` in a circle aimed at ``SCENE_CENTER``.

    This is the paper's deployment model: "an array of off-the-shelf RGB-D
    cameras encircling a scene" (section 3.1), e.g. the 10 Kinect v2
    cameras of the Panoptic dataset.
    """
    if num_cameras <= 0:
        raise ValueError("num_cameras must be positive")
    target = np.array(SCENE_CENTER)
    cameras = []
    for index in range(num_cameras):
        angle = 2.0 * np.pi * index / num_cameras
        eye = np.array([radius_m * np.cos(angle), height_m, radius_m * np.sin(angle)])
        cameras.append(
            RGBDCamera.looking_at(eye, target, intrinsics, camera_id=index)
        )
    return cameras
