"""Geometry substrate: point clouds, cameras, frustums, transforms.

This package provides the 3D primitives every other part of the LiVo
reproduction builds on:

- :mod:`repro.geometry.transforms` -- rigid transforms (rotation matrices,
  Euler angles, 4x4 homogeneous matrices).
- :mod:`repro.geometry.camera` -- pinhole camera model with intrinsics
  and extrinsics, projection and unprojection.
- :mod:`repro.geometry.pointcloud` -- the point cloud container used as
  the canonical 3D frame representation.
- :mod:`repro.geometry.frustum` -- the six-plane viewing frustum used by
  LiVo's view culling (paper section 3.4).
- :mod:`repro.geometry.voxel` -- voxel-grid downsampling used by the
  receiver-side renderer (paper appendix A.1).
"""
