"""Triangle meshes from RGB-D views, decimation, and point sampling.

The MeshReduce baseline "reconstructs a per-frame mesh" from RGB-D
captures (paper section 4.1).  This module provides:

- :func:`mesh_from_views` -- grid triangulation of each depth map
  (adjacent valid pixels become two triangles unless a depth
  discontinuity separates them), merged across cameras;
- :func:`decimate_mesh` -- vertex-clustering decimation on a voxel
  grid, MeshReduce's complexity knob;
- :func:`sample_mesh_points` -- uniform point sampling over faces,
  which is how the paper scores meshes with PointSSIM ("we sample as
  many points from the rendered mesh as there are in the ground truth
  point cloud", section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.capture.rgbd import MultiViewFrame
from repro.geometry.camera import RGBDCamera
from repro.geometry.pointcloud import PointCloud

__all__ = ["Mesh", "mesh_from_views", "decimate_mesh", "sample_mesh_points"]

# A quad edge spanning a larger depth step than this is an object
# boundary, not a surface, and is left untriangulated.
MAX_EDGE_DEPTH_GAP_M = 0.30


@dataclass
class Mesh:
    """An indexed triangle mesh with per-vertex colors."""

    vertices: np.ndarray                    # (V, 3) float64
    colors: np.ndarray                      # (V, 3) uint8
    faces: np.ndarray                       # (F, 3) int64 vertex indices

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.colors = np.asarray(self.colors, dtype=np.uint8).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        if len(self.vertices) != len(self.colors):
            raise ValueError("vertices and colors must align")
        if len(self.faces) and self.faces.max() >= len(self.vertices):
            raise ValueError("face index out of range")

    @property
    def num_vertices(self) -> int:
        """Vertex count."""
        return len(self.vertices)

    @property
    def num_faces(self) -> int:
        """Triangle count."""
        return len(self.faces)

    def face_areas(self) -> np.ndarray:
        """Per-triangle areas."""
        if not len(self.faces):
            return np.zeros(0)
        a = self.vertices[self.faces[:, 0]]
        b = self.vertices[self.faces[:, 1]]
        c = self.vertices[self.faces[:, 2]]
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def mesh_from_views(
    frame: MultiViewFrame,
    cameras: list[RGBDCamera],
) -> Mesh:
    """Grid-triangulate each depth map and merge into one mesh.

    A 2x2 pixel quad becomes two triangles when all its pixels are valid
    and no edge spans a depth discontinuity larger than
    ``MAX_EDGE_DEPTH_GAP_M`` (discontinuities are object boundaries, not
    surfaces).  The threshold is tuned to the reduced simulator resolution,
    where oblique surfaces legitimately change depth by tens of
    centimeters between adjacent pixels.
    """
    if len(frame.views) != len(cameras):
        raise ValueError("views/cameras mismatch")
    all_vertices, all_colors, all_faces = [], [], []
    vertex_offset = 0
    for view, camera in zip(frame.views, cameras):
        cloud_grid, valid = camera.local_points(view.depth_mm)
        height, width = valid.shape
        index_map = -np.ones((height, width), dtype=np.int64)
        ys, xs = np.nonzero(valid)
        if len(ys) == 0:
            continue
        index_map[ys, xs] = np.arange(len(ys))

        # World-frame vertices for this camera.
        from repro.geometry.transforms import transform_points

        local = cloud_grid[ys, xs]
        world = transform_points(camera.extrinsics.camera_to_world, local)
        colors = view.color[ys, xs]

        depth_m = view.depth_mm.astype(np.float64) / 1000.0
        quad_valid = (
            valid[:-1, :-1] & valid[:-1, 1:] & valid[1:, :-1] & valid[1:, 1:]
        )
        gaps_ok = (
            (np.abs(depth_m[:-1, :-1] - depth_m[:-1, 1:]) < MAX_EDGE_DEPTH_GAP_M)
            & (np.abs(depth_m[:-1, :-1] - depth_m[1:, :-1]) < MAX_EDGE_DEPTH_GAP_M)
            & (np.abs(depth_m[1:, 1:] - depth_m[:-1, 1:]) < MAX_EDGE_DEPTH_GAP_M)
            & (np.abs(depth_m[1:, 1:] - depth_m[1:, :-1]) < MAX_EDGE_DEPTH_GAP_M)
        )
        quads = quad_valid & gaps_ok
        qy, qx = np.nonzero(quads)
        if len(qy):
            top_left = index_map[qy, qx] + vertex_offset
            top_right = index_map[qy, qx + 1] + vertex_offset
            bottom_left = index_map[qy + 1, qx] + vertex_offset
            bottom_right = index_map[qy + 1, qx + 1] + vertex_offset
            faces = np.concatenate(
                [
                    np.stack([top_left, bottom_left, top_right], axis=1),
                    np.stack([top_right, bottom_left, bottom_right], axis=1),
                ]
            )
            all_faces.append(faces)
        all_vertices.append(world)
        all_colors.append(colors)
        vertex_offset += len(ys)

    if not all_vertices:
        return Mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.uint8), np.zeros((0, 3)))
    return Mesh(
        np.concatenate(all_vertices),
        np.concatenate(all_colors),
        np.concatenate(all_faces) if all_faces else np.zeros((0, 3), dtype=np.int64),
    )


def decimate_mesh(mesh: Mesh, voxel_size_m: float) -> Mesh:
    """Vertex-clustering decimation: merge vertices sharing a voxel.

    Triangles that collapse (two corners in one voxel) are dropped;
    duplicate triangles are deduplicated.  Larger voxels give coarser,
    cheaper meshes -- this is MeshReduce's adaptation knob ("it
    decimates the mesh more to fit the lower bandwidth", section 4.4).
    """
    if voxel_size_m <= 0:
        raise ValueError("voxel_size_m must be positive")
    if mesh.num_vertices == 0:
        return mesh
    keys = np.floor(mesh.vertices / voxel_size_m).astype(np.int64)
    unique_keys, inverse, counts = np.unique(
        keys, axis=0, return_inverse=True, return_counts=True
    )
    sums = np.zeros((len(unique_keys), 3))
    np.add.at(sums, inverse, mesh.vertices)
    new_vertices = sums / counts[:, None]
    color_sums = np.zeros((len(unique_keys), 3))
    np.add.at(color_sums, inverse, mesh.colors.astype(np.float64))
    new_colors = np.clip(np.rint(color_sums / counts[:, None]), 0, 255).astype(np.uint8)

    if mesh.num_faces:
        mapped = inverse[mesh.faces]
        non_degenerate = (
            (mapped[:, 0] != mapped[:, 1])
            & (mapped[:, 1] != mapped[:, 2])
            & (mapped[:, 0] != mapped[:, 2])
        )
        mapped = mapped[non_degenerate]
        # Deduplicate faces regardless of winding by sorting indices.
        canonical = np.sort(mapped, axis=1)
        _, first = np.unique(canonical, axis=0, return_index=True)
        new_faces = mapped[np.sort(first)]
    else:
        new_faces = mesh.faces
    return Mesh(new_vertices, new_colors, new_faces)


def sample_mesh_points(mesh: Mesh, num_points: int, seed: int = 0) -> PointCloud:
    """Sample points uniformly over the mesh surface (area-weighted).

    Colors are barycentric blends of the triangle's vertex colors.
    """
    if num_points <= 0:
        raise ValueError("num_points must be positive")
    if mesh.num_faces == 0:
        return PointCloud()
    rng = np.random.default_rng(seed)
    areas = mesh.face_areas()
    total = areas.sum()
    if total <= 0:
        return PointCloud()
    chosen = rng.choice(mesh.num_faces, size=num_points, p=areas / total)
    r1 = np.sqrt(rng.random(num_points))
    r2 = rng.random(num_points)
    w0 = 1.0 - r1
    w1 = r1 * (1.0 - r2)
    w2 = r1 * r2
    faces = mesh.faces[chosen]
    points = (
        w0[:, None] * mesh.vertices[faces[:, 0]]
        + w1[:, None] * mesh.vertices[faces[:, 1]]
        + w2[:, None] * mesh.vertices[faces[:, 2]]
    )
    colors = (
        w0[:, None] * mesh.colors[faces[:, 0]].astype(np.float64)
        + w1[:, None] * mesh.colors[faces[:, 1]].astype(np.float64)
        + w2[:, None] * mesh.colors[faces[:, 2]].astype(np.float64)
    )
    return PointCloud(points, np.clip(np.rint(colors), 0, 255).astype(np.uint8))
