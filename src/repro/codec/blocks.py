"""Block (macroblock) splitting and merging.

2D video codecs operate on fixed-size pixel blocks ("2D video codecs
predict macroblocks (8x8 or 16x16 pixel blocks) within and between
frames", paper section 3.2).  These helpers turn a plane (or a stack of
them) into an ``(num_blocks, B, B)`` stack and back, padding by edge
replication so every plane size is legal.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "split_blocks",
    "merge_blocks",
    "block_grid_shape",
]

DEFAULT_BLOCK_SIZE = 8


def block_grid_shape(height: int, width: int, block_size: int) -> tuple[int, int]:
    """Number of block rows and columns covering an ``height x width`` plane."""
    rows = -(-height // block_size)
    cols = -(-width // block_size)
    return rows, cols


def _edge_padded(planes: np.ndarray, block_size: int) -> np.ndarray:
    """``(..., H, W)`` planes grown at the bottom and right to block
    multiples by edge replication; returned as is when already legal.

    What ``np.pad(mode="edge")`` produces -- the last column copied
    rightward, then the last (widened) row copied downward -- as three
    slice assignments: a stream encodes dozens of small planes a frame,
    and ``np.pad``'s generic Python machinery cost more than the copy.
    """
    *lead, height, width = planes.shape
    rows, cols = block_grid_shape(height, width, block_size)
    if rows * block_size == height and cols * block_size == width:
        return planes
    padded = np.empty((*lead, rows * block_size, cols * block_size), dtype=planes.dtype)
    padded[..., :height, :width] = planes
    padded[..., :height, width:] = planes[..., :, width - 1 :]
    padded[..., height:, :] = padded[..., height - 1 : height, :]
    return padded


def split_blocks(planes: np.ndarray, block_size: int = DEFAULT_BLOCK_SIZE) -> np.ndarray:
    """Split planes ``(..., H, W)`` into ``(..., N, B, B)`` blocks, row-major.

    Every leading axis is preserved and each plane is edge-padded to
    block multiples first, so one call covers a single plane or a whole
    structure-of-arrays bucket (e.g. all sessions' planes, or all
    motion-shifted references).  A plane that is already a block
    multiple is split without a copy.
    """
    if planes.ndim < 2:
        raise ValueError(f"expected (..., H, W) planes, got shape {planes.shape}")
    *lead, height, width = planes.shape
    rows, cols = block_grid_shape(height, width, block_size)
    planes = _edge_padded(planes, block_size)
    return (
        planes.reshape(*lead, rows, block_size, cols, block_size)
        .swapaxes(-3, -2)
        .reshape(*lead, rows * cols, block_size, block_size)
    )


def merge_blocks(
    blocks: np.ndarray, height: int, width: int, block_size: int = DEFAULT_BLOCK_SIZE
) -> np.ndarray:
    """Reassemble an ``(N, B, B)`` stack into an ``height x width`` plane.

    Inverse of :func:`split_blocks`; padding introduced there is cropped.
    """
    rows, cols = block_grid_shape(height, width, block_size)
    if blocks.shape != (rows * cols, block_size, block_size):
        raise ValueError(
            f"expected {(rows * cols, block_size, block_size)} blocks, got {blocks.shape}"
        )
    plane = (
        blocks.reshape(rows, cols, block_size, block_size)
        .swapaxes(1, 2)
        .reshape(rows * block_size, cols * block_size)
    )
    return plane[:height, :width]
