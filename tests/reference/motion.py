"""Stacked motion search and compensation: every offset's plane built.

The oracle for ``repro.codec.motion.motion_batch`` and
``gather_prediction``, which read each offset's blocks through a strided
view and never build a shifted plane.  Here the reference is shifted by
every offset of the search window (edge clamped) into a ``(K, H, W)``
stack, each shifted plane is split into blocks (edge padded to a block
multiple), each block keeps the offset with the lowest SAD (lowest index
on ties), and block ``n`` of the predictor is picked out of set
``mv_index[n]``.  It defines the search and the predictor; the package's
kernel must reproduce both bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.codec.blocks import split_blocks


def shifted_planes(reference: np.ndarray, offsets: list[tuple[int, int]]) -> np.ndarray:
    """Stack of the reference plane shifted by each offset (edge clamped).

    Output shape ``(num_offsets, H, W)``; entry k is the predictor image
    for motion vector ``offsets[k]``.
    """
    height, width = reference.shape
    radius = max((max(abs(dy), abs(dx)) for dy, dx in offsets), default=0)
    padded = np.pad(reference, radius, mode="edge") if radius else reference
    stack = np.empty((len(offsets), height, width), dtype=np.float64)
    for index, (dy, dx) in enumerate(offsets):
        stack[index] = padded[radius + dy : radius + dy + height,
                              radius + dx : radius + dx + width]
    return stack


def estimate_motion(
    plane: np.ndarray, shifted: np.ndarray, block_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(mv_index, cost)``: the best offset per block and its SAD.

    ``shifted`` is :func:`shifted_planes` of the reference.
    """
    current_blocks = split_blocks(plane, block_size)
    num_offsets = shifted.shape[0]
    num_blocks = current_blocks.shape[0]
    costs = np.empty((num_offsets, num_blocks))
    for index in range(num_offsets):
        reference_blocks = split_blocks(shifted[index], block_size)
        costs[index] = np.abs(current_blocks - reference_blocks).sum(axis=(1, 2))
    mv_index = costs.argmin(axis=0)
    return mv_index.astype(np.uint8), costs[mv_index, np.arange(num_blocks)]


def gather_prediction_stacked(
    reference: np.ndarray,
    offsets: list[tuple[int, int]],
    mv_index: np.ndarray,
    block_size: int,
) -> np.ndarray:
    """``(N, B, B)`` predictor blocks selected by ``mv_index``."""
    shifted = shifted_planes(reference, offsets)
    all_blocks = np.stack(
        [split_blocks(shifted[index], block_size) for index in range(len(offsets))]
    )
    return all_blocks[mv_index, np.arange(all_blocks.shape[1])]


def motion_single(
    plane: np.ndarray,
    reference: np.ndarray,
    offsets: list[tuple[int, int]],
    block_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``(mv_index, predictor)`` for one plane, the stacked way."""
    if len(offsets) > 1:
        mv_index, _ = estimate_motion(plane, shifted_planes(reference, offsets), block_size)
    else:
        mv_index = np.zeros(len(split_blocks(plane, block_size)), dtype=np.uint8)
    return mv_index, gather_prediction_stacked(reference, offsets, mv_index, block_size)
