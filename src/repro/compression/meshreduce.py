"""MeshReduce: the mesh-based, indirectly-adaptive baseline (section 4.1).

Pipeline per the paper: capture RGB-D -> reconstruct a per-frame mesh ->
encode geometry (Draco) and color separately -> transmit over TCP.
Adaptation is *indirect*: an offline profile maps available bandwidth to
compression parameters (here: the decimation voxel size), chosen once
per session from the trace's mean bandwidth with a conservative margin.
That conservatism is exactly what Table 1 shows (18-31 percent link
utilization) and the paper's explanation for MeshReduce's lower quality.

Instead of stalling, MeshReduce's frame rate floats: frames are skipped
while the encoder or the TCP backlog is still busy ("it exhibits
varying frame rates", section 4.3; mean 12.1 fps, section 4.4).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.capture.rgbd import MultiViewFrame
from repro.compression.draco import DracoCodec, DracoConfig
from repro.compression.mesh import Mesh, decimate_mesh, mesh_from_views, sample_mesh_points
from repro.geometry.camera import RGBDCamera
from repro.geometry.pointcloud import PointCloud
from repro.transport.tcp import ReliableByteStream

__all__ = ["MeshReduceProfile", "MeshReducePipeline", "MeshReduceFrameResult", "encode_mesh"]

# Candidate decimation voxel sizes (meters), fine to coarse.
DEFAULT_VOXEL_GRID = (0.02, 0.03, 0.05, 0.08, 0.12, 0.2, 0.3, 0.45)

# Encode-time model: mesh reconstruction + Draco on all cores of a
# desktop CPU.  Anchored so a full-scene frame lands near the paper's
# measured 12 fps (~80 ms per frame).
_BASE_ENCODE_S = 0.030
_SECONDS_PER_VERTEX = 0.025 / 70_000  # Draco-like linear term


def encode_mesh(mesh: Mesh) -> tuple[int, float]:
    """Encode a mesh; returns (size_bytes, modeled encode time).

    Geometry+color ride the octree coder (as a colored vertex cloud, at
    11 quantization bits and compression level 7); connectivity is
    delta-coded face indices through DEFLATE.
    """
    config = DracoConfig(quantization_bits=11, compression_level=7)
    if mesh.num_vertices == 0:
        return 0, _BASE_ENCODE_S
    vertex_cloud = PointCloud(mesh.vertices, mesh.colors)
    encoded = DracoCodec(config).encode(vertex_cloud)
    if mesh.num_faces:
        # Connectivity: sort faces by anchor vertex and code each as
        # (anchor delta, corner offsets).  Adjacent triangles share
        # nearby vertices, so offsets stay small and compress well --
        # this matters after decimation reorders the vertex array.
        faces = np.sort(mesh.faces.astype(np.int64), axis=1)
        faces = faces[np.lexsort((faces[:, 2], faces[:, 1], faces[:, 0]))]
        anchors = faces[:, 0]
        anchor_deltas = np.diff(anchors, prepend=np.int64(0))
        offsets = faces[:, 1:] - anchors[:, None]
        stream = np.concatenate(
            [anchor_deltas[:, None], offsets], axis=1
        ).astype("<i4")
        face_blob = zlib.compress(stream.tobytes(), 6)
    else:
        face_blob = b""
    size = encoded.size_bytes + len(face_blob)
    time_s = _BASE_ENCODE_S + mesh.num_vertices * _SECONDS_PER_VERTEX
    return size, time_s


@dataclass(frozen=True)
class MeshReduceProfile:
    """Offline bandwidth -> decimation profile."""

    voxel_sizes: tuple[float, ...]
    bytes_per_frame: tuple[float, ...]

    @staticmethod
    def build(
        sample_frames: list[MultiViewFrame],
        cameras: list[RGBDCamera],
        voxel_grid: tuple[float, ...] = DEFAULT_VOXEL_GRID,
    ) -> "MeshReduceProfile":
        """Profile average encoded size per decimation level."""
        if not sample_frames:
            raise ValueError("need at least one sample frame")
        sizes = []
        for voxel in voxel_grid:
            total = 0
            for frame in sample_frames:
                mesh = decimate_mesh(mesh_from_views(frame, cameras), voxel)
                size, _ = encode_mesh(mesh)
                total += size
            sizes.append(total / len(sample_frames))
        return MeshReduceProfile(tuple(voxel_grid), tuple(sizes))

    def select_voxel(
        self,
        mean_bandwidth_bps: float,
        fps: float,
        conservativeness: float,
    ) -> float:
        """Finest decimation whose profiled size fits the margin-discounted
        budget; ``conservativeness`` is the fraction of the mean bandwidth
        the profile dares to use (the indirect-adaptation safety margin).
        """
        if mean_bandwidth_bps <= 0:
            raise ValueError("mean_bandwidth_bps must be positive")
        if not conservativeness > 0:
            raise ValueError("conservativeness must be positive")
        budget = mean_bandwidth_bps / 8.0 / fps * conservativeness
        for voxel, size in zip(self.voxel_sizes, self.bytes_per_frame):
            if size <= budget:
                return voxel
        return self.voxel_sizes[-1]


@dataclass(frozen=True)
class MeshReduceFrameResult:
    """Outcome of offering one capture to the pipeline."""

    sequence: int
    sent: bool
    size_bytes: int
    encode_time_s: float
    delivery_time_s: float | None
    mesh: Mesh | None


class MeshReducePipeline:
    """Per-session MeshReduce sender: fixed profile, floating frame rate."""

    def __init__(
        self,
        cameras: list[RGBDCamera],
        stream: ReliableByteStream,
        voxel_size_m: float,
    ) -> None:
        if voxel_size_m <= 0:
            raise ValueError("voxel_size_m must be positive")
        self.cameras = cameras
        self.stream = stream
        self.voxel_size_m = float(voxel_size_m)
        self._busy_until = 0.0

    def offer_frame(self, frame: MultiViewFrame, now: float) -> MeshReduceFrameResult:
        """Offer one capture; skipped when the encoder/link is still busy."""
        if now < self._busy_until:
            return MeshReduceFrameResult(frame.sequence, False, 0, 0.0, None, None)
        mesh = decimate_mesh(mesh_from_views(frame, self.cameras), self.voxel_size_m)
        size, encode_time = encode_mesh(mesh)
        if size == 0:
            return MeshReduceFrameResult(frame.sequence, False, 0, encode_time, None, mesh)
        send_time = now + encode_time
        delivery = self.stream.send(frame.sequence, size, send_time)
        # The sender is busy encoding; TCP backlog throttles further
        # (MeshReduce uses blocking sockets).
        self._busy_until = max(send_time, self.stream.backlog_delay_at(send_time) * 0.5 + send_time)
        return MeshReduceFrameResult(
            frame.sequence, True, size, encode_time, delivery.delivery_time_s, mesh
        )

    def reconstruct(self, mesh: Mesh, num_points: int, seed: int = 0) -> PointCloud:
        """Receiver-side: sample the mesh for PointSSIM scoring."""
        return sample_mesh_points(mesh, num_points, seed=seed)
