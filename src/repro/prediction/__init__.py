"""View prediction and culling (paper section 3.4).

The sender must know the receiver's future frustum to cull content it
will never see.  This package provides:

- :mod:`repro.prediction.pose` -- 6-DoF pose types and synthetic user
  traces (substituting the paper's IRB-collected headset traces);
- :mod:`repro.prediction.kalman` -- the constant-velocity Kalman filter
  LiVo predicts with (following Gul et al.);
- :mod:`repro.prediction.mlp` -- the learned MLP predictor baseline the
  paper evaluates against in Fig. 16 (ViVo-style);
- :mod:`repro.prediction.predictor` -- frustum prediction with
  guard-band expansion;
- :mod:`repro.prediction.culling` -- per-pixel RGB-D view culling in
  camera-local coordinates, without point cloud reconstruction.
"""
