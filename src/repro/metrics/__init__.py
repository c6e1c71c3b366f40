"""Quality metrics: image RMSE, PointSSIM, MOS model, latency.

- :mod:`repro.metrics.image` -- 2D pixel metrics; the RMSE here is what
  LiVo's bandwidth splitter balances (section 3.3);
- :mod:`repro.metrics.pointssim` -- the PointSSIM 3D quality metric
  (Alexiou & Ebrahimi) the paper scores with: separate geometry and
  color scores on a 0-100 scale;
- :mod:`repro.metrics.mos` -- the user-study substitute: a QoE model
  mapping objective measurements to Likert opinion scores;
- :mod:`repro.metrics.latency` -- the per-component latency model
  behind Table 6.

Each metric is imported from its own module: PointSSIM loads
``scipy.spatial``, which a process that only encodes and forwards never
needs.
"""
