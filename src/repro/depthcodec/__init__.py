"""Depth encoding: LiVo's 16-bit-Y scheme and the baselines it beats.

Paper section 3.2 ("LiVo's Depth Encoding"): depth is stored in the
Y channel of a 16-bit YUV H.265 mode, after *scaling* the 0-6000 mm
sensor range to occupy the full 16-bit range.  Scaling makes codec
quantization bins finer relative to the depth range, which is where the
quality win over unscaled encoding comes from (Fig. A.1, Fig. 17).

Also implemented, for Fig. 17's comparison:

- unscaled 16-bit Y encoding (the naive variant with block artifacts);
- RGB-packed depth (prior work [76, 84]): bit-split packing and
  Pece-style triangle-wave multiplexing into 8-bit color channels.
"""
