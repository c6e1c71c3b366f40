"""Motion estimation and compensation (block translation search).

P-frames predict each block from the previous *reconstructed* frame.
The search evaluates a small window of integer-pixel translations per
block (zero motion is always a candidate) and keeps the offset with the
lowest residual energy.  Conferencing scenes move modestly frame to
frame, so a small window captures most of the gain; the window size is
the codec's speed/quality knob.

One kernel, :func:`motion_batch`, runs the search for a stack of
equal-shape planes (a single plane is a stack of one), and
:func:`gather_prediction` -- the decoder's side -- shares its gather.
Neither builds the ``(K, H, W)`` stack of shifted reference planes:
each offset's blocks are read through a strided view of the padded
reference, so the only work memory is a few per-call scratches the
size of the planes themselves.  ``tests/reference/motion.py`` holds
the stacked single-plane bodies as the oracle the kernel must match
bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.codec.blocks import block_grid_shape, split_blocks

__all__ = [
    "search_offsets",
    "gather_prediction",
    "motion_batch",
]


def search_offsets(search_range: int) -> list[tuple[int, int]]:
    """All (dy, dx) integer offsets within the search window.

    Zero motion is placed first so index 0 is always "no motion".
    """
    if search_range < 0:
        raise ValueError("search_range must be non-negative")
    offsets = [(0, 0)]
    for dy in range(-search_range, search_range + 1):
        for dx in range(-search_range, search_range + 1):
            if (dy, dx) != (0, 0):
                offsets.append((dy, dx))
    return offsets


def _search_radius(offsets: list[tuple[int, int]]) -> int:
    return max((max(abs(dy), abs(dx)) for dy, dx in offsets), default=0)


def _blocks_view(plane_stack: np.ndarray, block_size: int) -> np.ndarray:
    """``(S, rows, cols, B, B)`` view of block-multiple ``(S, Hp, Wp)`` planes."""
    num_planes, height, width = plane_stack.shape
    return plane_stack.reshape(
        num_planes, height // block_size, block_size, width // block_size, block_size
    ).swapaxes(2, 3)


def _offset_blocks(
    padded: np.ndarray,
    radius: int,
    offset: tuple[int, int],
    shape: tuple[int, int],
    block_size: int,
    window: np.ndarray | None,
) -> np.ndarray:
    """``(S, rows, cols, B, B)`` blocks of the reference shifted by ``offset``.

    ``padded`` is the ``(S, H + 2r, W + 2r)`` radius-padded reference
    stack.  On a block-multiple plane the result is a zero-copy strided
    view into it.  Otherwise the shifted window is copied into the
    ``(S, Hp, Wp)`` scratch ``window`` and edge padded there, which is
    exactly what shifting the plane and then splitting it into blocks
    produces.
    """
    height, width = shape
    top, left = radius + offset[0], radius + offset[1]
    shifted = padded[:, top : top + height, left : left + width]
    if window is not None:
        window[:, :height, :width] = shifted
        window[:, :height, width:] = shifted[:, :, width - 1 :]
        window[:, height:, :] = window[:, height - 1 : height, :]
        shifted = window
    return _blocks_view(shifted, block_size)


def _prepare(references: np.ndarray, offsets: list[tuple[int, int]], block_size: int):
    """The radius-padded reference stack, its radius and the window scratch."""
    num_planes, height, width = references.shape
    radius = _search_radius(offsets)
    padded = (
        np.pad(references, ((0, 0), (radius, radius), (radius, radius)), mode="edge")
        if radius
        else references
    )
    rows, cols = block_grid_shape(height, width, block_size)
    aligned = (rows * block_size, cols * block_size) == (height, width)
    window = None if aligned else np.empty((num_planes, rows * block_size, cols * block_size))
    return padded, radius, window


def _gather(
    padded: np.ndarray,
    radius: int,
    offsets: list[tuple[int, int]],
    mv_index: np.ndarray,
    shape: tuple[int, int],
    block_size: int,
    window: np.ndarray | None,
) -> np.ndarray:
    """``(S, N, B, B)`` blocks picked by ``(S, N)`` offset indices.

    Zero motion (index 0), the common winner, is one unmasked copy of
    every block; each other offset that won a block then overwrites
    its winners with one masked copy.  Every index must lie inside
    ``offsets``.
    """
    num_planes = len(padded)
    rows, cols = block_grid_shape(*shape, block_size)
    winners = mv_index.reshape(num_planes, rows, cols)
    predictor = np.empty((num_planes, rows, cols, block_size, block_size))
    predictor[...] = _offset_blocks(padded, radius, offsets[0], shape, block_size, window)
    for index in range(1, len(offsets)):
        mask = winners == index
        if mask.any():
            blocks = _offset_blocks(padded, radius, offsets[index], shape, block_size, window)
            predictor[mask] = blocks[mask]
    return predictor.reshape(num_planes, rows * cols, block_size, block_size)


def gather_prediction(
    reference: np.ndarray,
    offsets: list[tuple[int, int]],
    mv_index: np.ndarray,
    block_size: int,
) -> np.ndarray:
    """The ``(N, B, B)`` predictor blocks selected by ``mv_index``.

    Block ``n`` is the block at its own position in the reference
    shifted by ``offsets[mv_index[n]]`` (edge clamped).  The decoder
    calls this with the same reference reconstruction as the encoder,
    and it shares :func:`motion_batch`'s gather, so prediction drift is
    zero.
    """
    padded, radius, window = _prepare(reference[None], offsets, block_size)
    return _gather(
        padded, radius, offsets, mv_index[None], reference.shape, block_size, window
    )[0]


def motion_batch(
    planes: np.ndarray,
    references: np.ndarray,
    offsets: list[tuple[int, int]],
    block_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Motion search + compensation for a stack of equal-shape planes.

    The codec's one motion kernel; a single plane is a stack of one.
    Each offset's blocks are a strided view of the radius-padded
    reference (see :func:`_offset_blocks`), so no per-offset plane
    stack is ever built.  The per-block SAD is the elementwise
    ``|a - b|`` reduced over the contiguous ``(B, B)`` axes of one
    reused scratch, and ``argmin`` breaks ties by lowest offset index
    (index 0 is zero motion).

    Args:
        planes: ``(S, H, W)`` current planes.
        references: ``(S, H, W)`` reference reconstructions.
        offsets: the shared motion-search window (``search_offsets``).
        block_size: macroblock edge length.

    Returns:
        ``(mv_index, predictor)`` -- ``(S, N)`` uint8 offset indices and
        ``(S, N, B, B)`` predictor blocks.
    """
    if planes.shape != references.shape or planes.ndim != 3:
        raise ValueError(
            f"expected matching (S, H, W) stacks, got {planes.shape} vs "
            f"{references.shape}"
        )
    num_planes, height, width = planes.shape
    rows, cols = block_grid_shape(height, width, block_size)
    padded, radius, window = _prepare(references, offsets, block_size)
    if len(offsets) > 1:
        block_shape = (num_planes, rows, cols, block_size, block_size)
        current = split_blocks(planes, block_size).reshape(block_shape)
        scratch = np.empty(block_shape)
        costs = np.empty((num_planes, len(offsets), rows, cols))
        for index, offset in enumerate(offsets):
            blocks = _offset_blocks(padded, radius, offset, (height, width), block_size, window)
            np.subtract(current, blocks, out=scratch)
            np.abs(scratch, out=scratch)
            scratch.sum(axis=(3, 4), out=costs[:, index])
        mv_index = costs.argmin(axis=1).reshape(num_planes, rows * cols).astype(np.uint8)
    else:
        mv_index = np.zeros((num_planes, rows * cols), dtype=np.uint8)
    predictor = _gather(padded, radius, offsets, mv_index, (height, width), block_size, window)
    return mv_index, predictor
