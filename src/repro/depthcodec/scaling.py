"""Depth scaling to the full 16-bit range.

Paper section 3.2: "we scale the depth value to occupy the entire 16-bit
range, i.e., scaled depth value for 0 mm remains at 0 while it is
2^16 - 1 for 6000 mm.  This approach incurs lower depth distortion:
codecs quantize depth values, and, for a given quantization step size,
more unscaled depth values fall into one quantization bin than scaled
depth values."

Zero is the sensor's invalid-pixel marker and must stay exactly zero
through scale/unscale so culled and invalid pixels survive the codec.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.camera import MAX_DEPTH_MM

__all__ = ["scale_depth", "unscale_depth", "scale_factor"]

_UINT16_MAX = 65535


def scale_factor() -> float:
    """Multiplier mapping the sensing range [0, ``MAX_DEPTH_MM``] onto [0, 65535]."""
    return _UINT16_MAX / MAX_DEPTH_MM


def scale_depth(depth_mm: np.ndarray) -> np.ndarray:
    """Scale millimeter depth to span the full uint16 range.

    Values above ``MAX_DEPTH_MM`` saturate (real sensors clip range too).
    """
    depth_mm = np.asarray(depth_mm)
    factor = scale_factor()
    scaled = np.clip(np.rint(depth_mm.astype(np.float64) * factor), 0, _UINT16_MAX)
    return scaled.astype(np.uint16)


def unscale_depth(scaled: np.ndarray) -> np.ndarray:
    """Invert :func:`scale_depth` back to millimeters."""
    scaled = np.asarray(scaled)
    factor = scale_factor()
    depth = np.rint(scaled.astype(np.float64) / factor)
    return np.clip(depth, 0, _UINT16_MAX).astype(np.uint16)
