"""A V-PCC-like video-based point cloud codec: its encode-time model.

MPEG's V-PCC "encodes point clouds using 2D video codecs", which makes
it *directly rate-adaptive* -- the property LiVo wants -- "but it takes
several minutes to encode one point cloud frame" (paper section 1: 8
minutes for an 11 MB frame), which rules it out for conferencing.

The paper uses V-PCC only for that latency, so this class is its time
model, anchored to the paper's measurement, the same shape as
:class:`repro.compression.gpcc.GPCCCodec`: any scheduler consulting it
sees V-PCC's prohibitive latency.
"""

from __future__ import annotations

__all__ = ["VPCCCodec"]

# Paper section 1: "8 minutes using V-PCC for an 11 MB point cloud"
# (~770k points at 15 B/point).
_SECONDS_PER_POINT = 480.0 / 770_000


class VPCCCodec:
    """Video-based point cloud codec's cost profile."""

    def estimate_encode_time_s(self, num_points: int) -> float:
        """Calibrated wall-clock estimate (paper: minutes per frame)."""
        return num_points * _SECONDS_PER_POINT
