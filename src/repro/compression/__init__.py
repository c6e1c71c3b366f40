"""3D compression substrate: the baselines LiVo is evaluated against.

- :mod:`repro.compression.draco` -- a from-scratch octree point cloud
  codec with Draco's two knobs (quantization bits, compression level)
  and a calibrated encode-time model;
- :mod:`repro.compression.oracle` -- the Draco-Oracle baseline
  (section 4.1): offline (size, time) profiles + an online selector
  that picks the best parameters fitting bandwidth and compute budgets;
- :mod:`repro.compression.mesh` -- depth-map triangulation, vertex-
  clustering decimation, and mesh point sampling;
- :mod:`repro.compression.meshreduce` -- the MeshReduce baseline:
  mesh capture, Draco-coded geometry, reliable transport, *indirect*
  bandwidth adaptation from an offline profile.
"""
