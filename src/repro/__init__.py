"""LiVo reproduction: bandwidth-adaptive volumetric video conferencing.

A from-scratch Python implementation of *LiVo: Toward Bandwidth-adaptive
Fully-Immersive Volumetric Video Conferencing* (CoNEXT 2025) and every
substrate it depends on.

Top-level layout:

- :mod:`repro.geometry` -- point clouds, cameras, frustums, voxels.
- :mod:`repro.capture` -- synthetic RGB-D camera rig + evaluation videos.
- :mod:`repro.codec` -- rate-adaptive block-transform 2D video codec.
- :mod:`repro.depthcodec` -- LiVo's 16-bit depth encoding + baselines.
- :mod:`repro.tiling` -- multi-camera tiling + frame sequence markers.
- :mod:`repro.transport` -- WebRTC-like transport, GCC, trace-driven link.
- :mod:`repro.prediction` -- Kalman/MLP pose prediction, frustum culling.
- :mod:`repro.compression` -- Draco-like octree codec, Oracle, MeshReduce.
- :mod:`repro.metrics` -- PointSSIM, image metrics, MOS model.
- :mod:`repro.core` -- the LiVo sender/receiver pipeline and schemes.

A package imports none of its submodules: import a name from the
module that defines it (``repro.core`` and ``repro.codec`` also resolve
their main names lazily).  Quickstart::

    from repro.capture.dataset import load_video
    from repro.core import LiVoSession, SessionConfig
    from repro.prediction.pose import user_traces_for_video
    from repro.transport.traces import trace_1

    _, scene = load_video("band2")
    user = user_traces_for_video("band2", 40)[0]
    report = LiVoSession(SessionConfig()).run(scene, user, trace_1(), 30, "band2")
    print(report.summary())
"""

__version__ = "1.0.0"
