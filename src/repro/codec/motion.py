"""Motion estimation and compensation (block translation search).

P-frames predict each block from the previous *reconstructed* frame.
The search evaluates a small window of integer-pixel translations per
block (zero motion is always a candidate) and keeps the offset with the
lowest residual energy.  Conferencing scenes move modestly frame to
frame, so a small window captures most of the gain; the window size is
the codec's speed/quality knob.
"""

from __future__ import annotations

import numpy as np

from repro.codec.blocks import block_grid_shape, split_blocks, split_blocks_nd

__all__ = [
    "search_offsets",
    "shifted_planes",
    "estimate_motion",
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


def shifted_planes(
    reference: np.ndarray,
    offsets: list[tuple[int, int]],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Stack of the reference plane shifted by each offset (edge clamped).

    Output shape ``(num_offsets, H, W)``; entry k is the predictor image
    for motion vector ``offsets[k]``.  ``out`` supplies a preallocated
    stack of that shape (e.g. from a
    :class:`~repro.perf.scratch.ScratchArena`); every entry is fully
    overwritten, so a reused buffer cannot leak state between calls.
    """
    height, width = reference.shape
    radius = _search_radius(offsets)
    padded = np.pad(reference, radius, mode="edge") if radius else reference
    if out is None:
        stack = np.empty((len(offsets), height, width), dtype=np.float64)
    else:
        if out.shape != (len(offsets), height, width):
            raise ValueError(
                f"out buffer shape {out.shape} != {(len(offsets), height, width)}"
            )
        stack = out
    for index, (dy, dx) in enumerate(offsets):
        stack[index] = padded[radius + dy : radius + dy + height,
                              radius + dx : radius + dx + width]
    return stack


def estimate_motion(
    plane: np.ndarray,
    shifted: np.ndarray,
    block_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Pick the best offset per block.

    Args:
        plane: current frame plane (H, W) float.
        shifted: output of :func:`shifted_planes` for the reference.
        block_size: macroblock edge length.

    Returns:
        ``(mv_index, cost)`` -- per-block index into the offset list and
        the winning block SAD.
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


def _block_index_templates(
    height: int, width: int, block_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(N, B)`` row and column indices of every block's pixels.

    Blocks are in :func:`split_blocks`' row-major order.  Clipping to
    the plane's last valid pixel replicates the edge, exactly what
    ``np.pad(..., mode="edge")`` up to a block multiple would produce.
    """
    rows, cols = block_grid_shape(height, width, block_size)
    base_rows = np.minimum(np.arange(rows * block_size), height - 1)
    base_cols = np.minimum(np.arange(cols * block_size), width - 1)
    block_rows = np.repeat(base_rows.reshape(rows, block_size), cols, axis=0)
    block_cols = np.tile(base_cols.reshape(cols, block_size), (rows, 1))
    return block_rows, block_cols


def _gather_winners(
    padded: np.ndarray,
    radius: int,
    offsets: list[tuple[int, int]],
    mv_index: np.ndarray,
    block_rows: np.ndarray,
    block_cols: np.ndarray,
) -> np.ndarray:
    """``(S, N, B, B)`` blocks picked by ``(S, N)`` offset indices.

    ``padded`` is the ``(S, H + 2r, W + 2r)`` radius-padded reference
    stack; only the N winning blocks of each plane are read.
    """
    shift = radius + np.asarray(offsets)[mv_index]                 # (S, N, 2)
    return padded[
        np.arange(len(padded))[:, None, None, None],
        (shift[:, :, 0, None] + block_rows)[:, :, :, None],
        (shift[:, :, 1, None] + block_cols)[:, :, None, :],
    ]


def gather_prediction(
    reference: np.ndarray,
    offsets: list[tuple[int, int]],
    mv_index: np.ndarray,
    block_size: int,
) -> np.ndarray:
    """The ``(N, B, B)`` predictor blocks selected by ``mv_index``.

    Block ``n`` is the block at its own position in the reference
    shifted by ``offsets[mv_index[n]]`` (edge clamped).  Only those N
    blocks are read, so the cost does not depend on the size of the
    search window.  The decoder calls this with the same reference
    reconstruction as the encoder, so prediction drift is zero.
    """
    radius = _search_radius(offsets)
    padded = np.pad(reference, radius, mode="edge") if radius else reference
    templates = _block_index_templates(*reference.shape, block_size)
    return _gather_winners(padded[None], radius, offsets, mv_index[None], *templates)[0]


def motion_batch(
    planes: np.ndarray,
    references: np.ndarray,
    offsets: list[tuple[int, int]],
    block_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Motion search + compensation for a stack of equal-shape planes.

    The structure-of-arrays twin of ``shifted_planes`` +
    :func:`estimate_motion` + :func:`gather_prediction`: one padded
    slice per offset covers every plane in the stack, and one SAD
    reduction scores all (plane, offset, block) triples.  Results are
    byte-identical per plane to the scalar chain -- the per-block SAD
    values are the same elementwise sums, and ``argmin`` breaks ties by
    lowest offset index on both paths.

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
    num_sessions, height, width = planes.shape
    radius = _search_radius(offsets)
    padded = (
        np.pad(references, ((0, 0), (radius, radius), (radius, radius)), mode="edge")
        if radius
        else references
    )
    # Clip-indexed gathers read each offset's blocks straight out of the
    # radius-padded reference, already in block order: gathering in
    # block order skips the strided plane-to-block reshape copy, which
    # dominates at fleet scale.
    block_rows, block_cols = _block_index_templates(height, width, block_size)
    current_blocks = split_blocks_nd(planes, block_size)       # (S, N, B, B)
    num_blocks = current_blocks.shape[1]
    if len(offsets) > 1:
        # One offset at a time: the (S, N, B, B) scratch stays cache
        # resident where a full (S, K, N, B, B) broadcast would thrash
        # at fleet scale.  Per-block sums are the same elementwise
        # |a - b| reduced over the same contiguous (B, B) axes, so
        # costs -- and the argmin tie-break -- are bit-identical.
        costs = np.empty((num_sessions, len(offsets), num_blocks))
        scratch = np.empty_like(current_blocks)
        for index, (dy, dx) in enumerate(offsets):
            shifted = padded[
                :,
                (radius + dy + block_rows)[:, :, None],
                (radius + dx + block_cols)[:, None, :],
            ]
            np.subtract(current_blocks, shifted, out=scratch)
            np.abs(scratch, out=scratch)
            costs[:, index] = scratch.sum(axis=(2, 3))
        mv_index = costs.argmin(axis=1)                        # (S, N)
    else:
        mv_index = np.zeros((num_sessions, num_blocks), dtype=np.int64)
    # One final gather re-reads only the winning blocks instead of
    # holding every offset's block set live for a take_along_axis.
    predictor = _gather_winners(padded, radius, offsets, mv_index, block_rows, block_cols)
    return mv_index.astype(np.uint8), predictor
