"""Stacked motion compensation: every offset's plane built, one block read.

The oracle for ``repro.codec.motion.gather_prediction``, which reads only
the winning blocks.  Here the reference is shifted by every offset of the
search window (edge clamped), each shifted plane is split into blocks
(edge padded to a block multiple), the block sets are stacked, and block
``n`` is picked out of set ``mv_index[n]``.  It defines the predictor; the
package's direct gather must reproduce it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.codec.blocks import split_blocks
from repro.codec.motion import shifted_planes


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
