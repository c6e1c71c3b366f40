"""Dense hole filling: sixteen shift-accumulate passes over every pixel.

The oracle for ``repro.capture.renderer.fill_holes_batch``, which visits
holes only.  Each pass slides the whole zero-bordered float64 stack over
its eight neighbor shifts (each image keeps its own border, so images
never bleed into each other), sums in the fixed ``NEIGHBOR_SHIFTS``
order, fills every invalid pixel that has enough valid neighbors with
their mean, and rounds the whole stack once at the end.  It defines the
fill values; the package's hole-only fill must reproduce them bit for
bit, dtypes included.
"""

from __future__ import annotations

import numpy as np

NEIGHBOR_SHIFTS = tuple(
    (dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0)
)


def fill_holes_batch_dense(
    depths: np.ndarray, colors: np.ndarray, iterations: int = 2, min_neighbors: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """Fill a ``(N, H, W)`` stack, every pixel visited on every pass."""
    depths = depths.astype(np.float64)
    colors = colors.astype(np.float64)
    count, height, width = depths.shape

    neighbor_count = np.empty((count, height, width))
    depth_sum = np.empty((count, height, width))
    color_sum = np.empty(colors.shape)
    padded_depth = np.zeros((count, height + 2, width + 2))
    padded_color = np.zeros((count, height + 2, width + 2, colors.shape[3]))
    padded_valid = np.zeros((count, height + 2, width + 2), dtype=bool)

    for _ in range(iterations):
        valid = depths > 0
        if valid.all():
            break
        neighbor_count.fill(0.0)
        depth_sum.fill(0.0)
        color_sum.fill(0.0)
        padded_depth[:, 1:-1, 1:-1] = depths
        padded_color[:, 1:-1, 1:-1] = colors
        padded_valid[:, 1:-1, 1:-1] = valid
        for dy, dx in NEIGHBOR_SHIFTS:
            window = (
                slice(None),
                slice(1 + dy, 1 + dy + height),
                slice(1 + dx, 1 + dx + width),
            )
            neighbor_valid = padded_valid[window]
            neighbor_count += neighbor_valid
            depth_sum += padded_depth[window] * neighbor_valid
            color_sum += padded_color[window] * neighbor_valid[..., None]
        fill = (~valid) & (neighbor_count >= min_neighbors)
        if not fill.any():
            break
        depths[fill] = depth_sum[fill] / neighbor_count[fill]
        colors[fill] = color_sum[fill] / neighbor_count[fill][:, None]
    return (
        np.clip(np.rint(depths), 0, 65535).astype(np.uint16),
        np.clip(np.rint(colors), 0, 255).astype(np.uint8),
    )
